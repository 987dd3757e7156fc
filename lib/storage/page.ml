(* Slotted pages.

   Layout (all integers little-endian u16):

     0   number of slots (including dead ones)
     2   offset of the start of the record heap (records grow downward
         from the end of the page; the heap start is the lowest record
         offset in use)
     4   page kind tag (free for the access methods above this layer)
     6   slot directory: per slot, u16 offset + u16 length; offset 0
         marks a dead slot

   Records are arbitrary byte strings.  [compact] defragments the heap;
   [insert] compacts automatically when fragmented space would satisfy
   the request. *)

type t = { data : Bytes.t }

let header_size = 6
let slot_entry_size = 4

let size page = Bytes.length page.data

let get_u16 page off = Char.code (Bytes.get page.data off)
                       lor (Char.code (Bytes.get page.data (off + 1)) lsl 8)

let set_u16 page off v =
  if v < 0 || v > 0xFFFF then invalid_arg "Page.set_u16: out of range";
  Bytes.set page.data off (Char.chr (v land 0xFF));
  Bytes.set page.data (off + 1) (Char.chr ((v lsr 8) land 0xFF))

let num_slots page = get_u16 page 0
let heap_start page = get_u16 page 2
let kind page = get_u16 page 4
let set_kind page k = set_u16 page 4 k

let slot_dir_end page = header_size + (num_slots page * slot_entry_size)

let slot_offset page slot = get_u16 page (header_size + (slot * slot_entry_size))

let slot_length page slot =
  get_u16 page (header_size + (slot * slot_entry_size) + 2)

let set_slot page slot ~off ~len =
  set_u16 page (header_size + (slot * slot_entry_size)) off;
  set_u16 page (header_size + (slot * slot_entry_size) + 2) len

let create ?(size = 4096) () =
  if size < 64 || size > 0xFFFF then invalid_arg "Page.create: bad size";
  let page = { data = Bytes.make size '\000' } in
  set_u16 page 0 0;
  set_u16 page 2 size;
  page

let of_bytes data = { data }
let to_bytes page = page.data

let live_slots page =
  let n = num_slots page in
  let rec go i acc =
    if i >= n then List.rev acc
    else go (i + 1) (if slot_offset page i <> 0 then i :: acc else acc)
  in
  go 0 []

let record_count page = List.length (live_slots page)

let is_live page slot =
  slot >= 0 && slot < num_slots page && slot_offset page slot <> 0

let get page slot =
  if not (is_live page slot) then None
  else
    Some (Bytes.sub_string page.data (slot_offset page slot) (slot_length page slot))

let get_exn page slot =
  match get page slot with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Page.get_exn: dead slot %d" slot)

(* Contiguous free space between the slot directory and the heap. *)
let contiguous_free page = heap_start page - slot_dir_end page

(* Total reclaimable space, counting dead records. *)
let free_space page =
  let live_bytes =
    List.fold_left (fun acc s -> acc + slot_length page s) 0 (live_slots page)
  in
  size page - header_size
  - (num_slots page * slot_entry_size)
  - live_bytes

let compact page =
  let entries =
    List.map (fun s -> (s, get_exn page s)) (live_slots page)
  in
  (* rewrite records from the end of the page downward *)
  let pos = ref (size page) in
  List.iter
    (fun (s, r) ->
      let len = String.length r in
      pos := !pos - len;
      Bytes.blit_string r 0 page.data !pos len;
      set_slot page s ~off:!pos ~len)
    entries;
  set_u16 page 2 !pos

(* Find a dead slot to reuse, else append a new directory entry. *)
let alloc_slot page =
  let n = num_slots page in
  let rec find i = if i >= n then None else if slot_offset page i = 0 then Some i else find (i + 1) in
  match find 0 with
  | Some s -> Some (s, 0)
  | None -> Some (n, slot_entry_size)

let insert page record =
  let len = String.length record in
  if len = 0 then invalid_arg "Page.insert: empty record";
  match alloc_slot page with
  | None -> None
  | Some (slot, dir_growth) ->
      let need = len + dir_growth in
      if free_space page < need then None
      else begin
        if contiguous_free page < need then compact page;
        if slot = num_slots page then set_u16 page 0 (num_slots page + 1);
        let off = heap_start page - len in
        Bytes.blit_string record 0 page.data off len;
        set_u16 page 2 off;
        set_slot page slot ~off ~len;
        Some slot
      end

let delete page slot =
  if not (is_live page slot) then false
  else begin
    set_slot page slot ~off:0 ~len:0;
    true
  end

let update page slot record =
  if not (is_live page slot) then false
  else begin
    let len = String.length record in
    if len = slot_length page slot then begin
      Bytes.blit_string record 0 page.data (slot_offset page slot) len;
      true
    end
    else begin
      (* delete + re-insert into the SAME slot *)
      let saved_off = slot_offset page slot and saved_len = slot_length page slot in
      set_slot page slot ~off:0 ~len:0;
      if free_space page < len then begin
        set_slot page slot ~off:saved_off ~len:saved_len;
        false
      end
      else begin
        if contiguous_free page < len then compact page;
        let off = heap_start page - len in
        Bytes.blit_string record 0 page.data off len;
        set_u16 page 2 off;
        set_slot page slot ~off ~len;
        true
      end
    end
  end

(* Force a record into a SPECIFIC slot, creating the slot (and any dead
   slots before it) if needed — used by the undo of a slot delete, which
   must restore the record under its old slot number. *)
let write_at page slot record =
  if slot < 0 then invalid_arg "Page.write_at: negative slot";
  if is_live page slot then update page slot record
  else begin
    let len = String.length record in
    let dir_growth =
      if slot < num_slots page then 0
      else (slot + 1 - num_slots page) * slot_entry_size
    in
    if free_space page < len + dir_growth then false
    else begin
      if slot >= num_slots page then begin
        (* grow the directory; intermediate slots stay dead *)
        let old = num_slots page in
        set_u16 page 0 (slot + 1);
        for s = old to slot do
          set_slot page s ~off:0 ~len:0
        done
      end;
      if contiguous_free page < len then compact page;
      let off = heap_start page - len in
      Bytes.blit_string record 0 page.data off len;
      set_u16 page 2 off;
      set_slot page slot ~off ~len;
      true
    end
  end
