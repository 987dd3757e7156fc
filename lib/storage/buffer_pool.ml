(* Buffer pool with pin counts and LRU eviction.

   Access methods pin a page, work on the in-frame image and unpin it,
   marking it dirty when modified.  Eviction picks the least recently used
   unpinned frame and writes it back if dirty; the page that caused the
   eviction is then read into the victim's bytes, so a full pool serves
   misses without allocating page images. *)

type frame = {
  page_id : Disk.page_id;
  page : Page.t;
  mutable pins : int;
  mutable dirty : bool;
  mutable last_use : int;
}

type t = {
  disk : Disk.t;
  capacity : int;
  frames : (Disk.page_id, frame) Hashtbl.t;
  mutable clock : int;
  mutable evictions : int;
}

exception Pool_full

let create ?(capacity = 64) disk =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity";
  {
    disk;
    capacity;
    frames = Hashtbl.create (capacity * 2);
    clock = 0;
    evictions = 0;
  }

let disk t = t.disk
let evictions t = t.evictions

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let flush_frame t frame =
  if frame.dirty then begin
    Disk.write t.disk frame.page_id (Page.to_bytes frame.page);
    frame.dirty <- false
  end

let evict_one t =
  let victim =
    Hashtbl.fold
      (fun _ f best ->
        if f.pins > 0 then best
        else
          match best with
          | Some b when b.last_use <= f.last_use -> best
          | _ -> Some f)
      t.frames None
  in
  match victim with
  | None -> raise Pool_full
  | Some f ->
      flush_frame t f;
      Hashtbl.remove t.frames f.page_id;
      t.evictions <- t.evictions + 1;
      f.page

let pin t page_id =
  match Hashtbl.find_opt t.frames page_id with
  | Some f ->
      f.pins <- f.pins + 1;
      f.last_use <- tick t;
      f.page
  | None ->
      let page =
        if Hashtbl.length t.frames >= t.capacity then begin
          let page = evict_one t in
          ignore (Disk.read ~into:(Page.to_bytes page) t.disk page_id);
          page
        end
        else Page.of_bytes (Disk.read t.disk page_id)
      in
      let f = { page_id; page; pins = 1; dirty = false; last_use = tick t } in
      Hashtbl.replace t.frames page_id f;
      page

let unpin ?(dirty = false) t page_id =
  match Hashtbl.find_opt t.frames page_id with
  | None -> invalid_arg "Buffer_pool.unpin: page not resident"
  | Some f ->
      if f.pins <= 0 then invalid_arg "Buffer_pool.unpin: not pinned";
      f.pins <- f.pins - 1;
      if dirty then f.dirty <- true

let with_page t page_id ~f =
  let page = pin t page_id in
  match f page with
  | result, dirty ->
      unpin ~dirty t page_id;
      result
  | exception e ->
      unpin t page_id;
      raise e

let alloc t =
  let id = Disk.alloc t.disk in
  (* materialise immediately so the caller can initialise it *)
  ignore (pin t id);
  unpin ~dirty:true t id;
  id
