(* A volume of pages.

   The paper's testbed stored pages on disk through the VODAK prototype;
   we keep page images in memory (see DESIGN.md, substitutions) behind the
   same read/write-by-page-id interface, and count the reads so tests can
   observe the I/O a buffer pool miss costs. *)

type page_id = int

type t = {
  page_size : int;
  mutable pages : Bytes.t option array;
  mutable next : int;
  mutable reads : int;
}

let create ?(page_size = 4096) () =
  { page_size; pages = Array.make 64 None; next = 0; reads = 0 }

let page_count t = t.next
let reads t = t.reads

let grow t =
  let cap = Array.length t.pages in
  if t.next >= cap then begin
    let bigger = Array.make (cap * 2) None in
    Array.blit t.pages 0 bigger 0 cap;
    t.pages <- bigger
  end

let alloc t =
  grow t;
  let id = t.next in
  t.pages.(id) <- Some (Bytes.make t.page_size '\000');
  t.next <- id + 1;
  id

let check t id =
  if id < 0 || id >= t.next then
    invalid_arg (Printf.sprintf "Disk: page %d out of range" id)

let read t id =
  check t id;
  t.reads <- t.reads + 1;
  match t.pages.(id) with
  | Some b -> Bytes.copy b
  | None -> invalid_arg (Printf.sprintf "Disk: page %d unallocated" id)

let write t id bytes =
  check t id;
  if Bytes.length bytes <> t.page_size then
    invalid_arg "Disk.write: wrong page size";
  t.pages.(id) <- Some (Bytes.copy bytes)
