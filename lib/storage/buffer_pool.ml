(* Buffer pool with pin counts and LRU eviction.

   Access methods pin a page, work on the in-frame image and unpin it,
   marking it dirty when modified.  Eviction picks the least recently used
   unpinned frame and writes it back if dirty; the page that caused the
   eviction is then read into the victim's bytes, so a full pool serves
   misses without allocating page images. *)

(* Resident frames sit on a circular doubly linked list through a
   sentinel, least recently pinned first: a pin moves its frame to the
   back, so the first unpinned frame from the front is the least
   recently used one.  Only pinned frames are ever skipped, and those
   are the few pages the current accesses hold. *)
type frame = {
  page_id : Disk.page_id;
  page : Page.t;
  mutable pins : int;
  mutable dirty : bool;
  mutable prev : frame;
  mutable next : frame;
}

type t = {
  disk : Disk.t;
  capacity : int;
  frames : (Disk.page_id, frame) Hashtbl.t;
  lru : frame;  (* sentinel: [lru.next] is the least recently used *)
  mutable evictions : int;
}

exception Pool_full

let create ?(capacity = 64) disk =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity";
  let page = Page.create ~size:64 () in
  let rec lru =
    { page_id = -1; page; pins = 0; dirty = false; prev = lru; next = lru }
  in
  { disk; capacity; frames = Hashtbl.create (capacity * 2); lru; evictions = 0 }

let disk t = t.disk
let evictions t = t.evictions

let resident t =
  List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.frames [])

let unlink f =
  f.prev.next <- f.next;
  f.next.prev <- f.prev

let push_back t f =
  f.prev <- t.lru.prev;
  f.next <- t.lru;
  t.lru.prev.next <- f;
  t.lru.prev <- f

let flush_frame t frame =
  if frame.dirty then begin
    Disk.write t.disk frame.page_id (Page.to_bytes frame.page);
    frame.dirty <- false
  end

let evict_one t =
  let rec victim f =
    if f == t.lru then raise Pool_full
    else if f.pins > 0 then victim f.next
    else f
  in
  let f = victim t.lru.next in
  flush_frame t f;
  unlink f;
  Hashtbl.remove t.frames f.page_id;
  t.evictions <- t.evictions + 1;
  f.page

let pin t page_id =
  match Hashtbl.find_opt t.frames page_id with
  | Some f ->
      f.pins <- f.pins + 1;
      unlink f;
      push_back t f;
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
      let f = { page_id; page; pins = 1; dirty = false; prev = t.lru; next = t.lru } in
      push_back t f;
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
