(* A volume of pages.

   The paper's testbed stored pages on disk through the VODAK prototype;
   we keep page images in memory (see DESIGN.md, substitutions) behind the
   same read/write-by-page-id interface, and count the reads so tests can
   observe the I/O a buffer pool miss costs.  Each page keeps one private
   image for its lifetime: reads and writes blit out of or into it, so a
   buffer pool that reuses its frames moves pages without allocating. *)

type page_id = int

type t = {
  page_size : int;
  mutable pages : Bytes.t array;  (* ids [0, next) are allocated *)
  mutable next : int;
  mutable reads : int;
}

let create ?(page_size = 4096) () =
  { page_size; pages = Array.make 64 Bytes.empty; next = 0; reads = 0 }

let page_count t = t.next
let reads t = t.reads

let grow t =
  let cap = Array.length t.pages in
  if t.next >= cap then begin
    let bigger = Array.make (cap * 2) Bytes.empty in
    Array.blit t.pages 0 bigger 0 cap;
    t.pages <- bigger
  end

let alloc t =
  grow t;
  let id = t.next in
  t.pages.(id) <- Bytes.make t.page_size '\000';
  t.next <- id + 1;
  id

let image t id =
  if id < 0 || id >= t.next then
    invalid_arg (Printf.sprintf "Disk: page %d out of range" id);
  t.pages.(id)

let check_size t what bytes =
  if Bytes.length bytes <> t.page_size then
    invalid_arg (what ^ ": wrong page size")

let read ?into t id =
  let img = image t id in
  let dst =
    match into with
    | Some dst ->
        check_size t "Disk.read" dst;
        dst
    | None -> Bytes.create t.page_size
  in
  t.reads <- t.reads + 1;
  Bytes.blit img 0 dst 0 t.page_size;
  dst

let write t id bytes =
  let img = image t id in
  check_size t "Disk.write" bytes;
  Bytes.blit bytes 0 img 0 t.page_size
