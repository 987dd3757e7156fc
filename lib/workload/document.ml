(* Cooperative document editing: the publication-environment workload of
   §1 and Fig. 1 ("processing the layout of a document consists of
   processing the contents, the chapters, ...").

   A document is an object over section objects over shared pages —
   several sections are co-located on one page, so edits of different
   sections by different authors collide at page level but commute at the
   document level, exactly the situation where open nesting lets all
   authors work simultaneously while a layout pass still conflicts with
   every edit. *)

open Ooser_core
open Ooser_oodb
open Ooser_storage

type t = {
  db : Database.t;
  pool : Buffer_pool.t;
  doc : Obj_id.t;
  sections : int;
  section_rid : (int * int) array;  (* page, slot per section *)
}

let section_obj name i = Obj_id.v (Printf.sprintf "%s.Section%d" name i)
let page_obj name pid = Obj_id.v (Printf.sprintf "%s.Page%d" name pid)

let page_spec =
  Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ]

let register_page t name pid =
  let read _ctx args =
    match args with
    | [ Value.Int slot ] ->
        Buffer_pool.with_page t.pool pid ~f:(fun page ->
            (Value.str (Page.get_exn page slot), false))
    | _ -> invalid_arg "page read"
  in
  let write ctx args =
    match args with
    | [ Value.Int slot; Value.Str data ] ->
        Buffer_pool.with_page t.pool pid ~f:(fun page ->
            let old = Page.get_exn page slot in
            Runtime.on_undo ctx (fun () ->
                Buffer_pool.with_page t.pool pid ~f:(fun page ->
                    (ignore (Page.update page slot old), true)));
            if not (Page.update page slot data) then failwith "section too long";
            (Value.unit, true))
    | _ -> invalid_arg "page write"
  in
  Database.register_or_replace t.db (page_obj name pid) ~spec:page_spec
    [ ("read", Database.primitive read); ("write", Database.primitive write) ]

let section_spec = Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ]

let register_section t name i =
  let pid, slot = t.section_rid.(i) in
  let read ctx _args =
    Runtime.call ctx (page_obj name pid) "read" [ Value.int slot ]
  in
  let write ctx args =
    match args with
    | [ Value.Str text ] ->
        Runtime.call ctx (page_obj name pid) "write"
          [ Value.int slot; Value.str text ]
    | _ -> invalid_arg "section write"
  in
  Database.register_or_replace t.db (section_obj name i) ~spec:section_spec
    [
      ("read", Database.composite read);
      ("write", Database.composite write);
    ]

(* Document-level semantics: edits of different sections commute; the
   layout pass reads everything and conflicts with all edits. *)
let doc_spec =
  let keyed =
    Commutativity.by_key ~key_of:Commutativity.first_arg
      (Commutativity.predicate ~stable:true ~name:"doc-keyed" (fun a b ->
           match (Action.meth a, Action.meth b) with
           | "read", "read" -> true
           | _ -> false))
  in
  Commutativity.predicate ~stable:true ~name:"document" (fun a b ->
      match (Action.meth a, Action.meth b) with
      | ("layout" | "layoutPar"), _ | _, ("layout" | "layoutPar") -> false
      | _ -> Commutativity.test keyed a b)

let register_doc t name =
  let sec args =
    match args with
    | Value.Int i :: _ when i >= 0 && i < t.sections -> i
    | _ -> invalid_arg "bad section number"
  in
  let edit ctx args =
    match args with
    | [ Value.Int _; Value.Str text ] ->
        Runtime.call ctx (section_obj name (sec args)) "write" [ Value.str text ]
    | _ -> invalid_arg "edit"
  in
  let read ctx args =
    Runtime.call ctx (section_obj name (sec args)) "read" []
  in
  let layout ctx _args =
    let parts =
      List.init t.sections (fun i ->
          Runtime.call ctx (section_obj name i) "read" [])
    in
    Value.list parts
  in
  (* the same pass with intra-transaction parallelism (Def. 9): all
     section reads fork as parallel branches *)
  let layout_par ctx _args =
    let parts =
      Runtime.call_par ctx
        (List.init t.sections (fun i ->
             Runtime.invocation (section_obj name i) "read" []))
    in
    Value.list parts
  in
  Database.register_or_replace t.db t.doc ~spec:doc_spec
    [
      ("edit", Database.composite edit);
      ("read", Database.composite read);
      ("layout", Database.composite layout);
      ("layoutPar", Database.composite layout_par);
    ]

let create ?(name = "Doc") ?(sections = 8) ?(sections_per_page = 4)
    ?(page_size = 4096) db =
  if sections <= 0 then invalid_arg "Document.create: sections";
  let disk = Disk.create ~page_size () in
  let pool = Buffer_pool.create ~capacity:64 disk in
  let t =
    {
      db;
      pool;
      doc = Obj_id.v name;
      sections;
      section_rid = Array.make sections (0, 0);
    }
  in
  (* co-locate sections on shared pages *)
  let current_page = ref (-1) in
  for i = 0 to sections - 1 do
    if i mod sections_per_page = 0 then begin
      current_page := Buffer_pool.alloc pool;
      register_page t name !current_page
    end;
    let slot =
      Buffer_pool.with_page pool !current_page ~f:(fun page ->
          match Page.insert page (Printf.sprintf "section %d" i) with
          | Some s -> (s, true)
          | None -> failwith "document page full")
    in
    t.section_rid.(i) <- (!current_page, slot);
    register_section t name i
  done;
  register_doc t name;
  t

let sections t = t.sections

let section_page t i = fst t.section_rid.(i)

(* Transaction body helpers. *)
let edit t ctx ~section ~text =
  ignore
    (Runtime.call ctx t.doc "edit" [ Value.int section; Value.str text ])

let read t ctx ~section =
  Value.to_str_exn (Runtime.call ctx t.doc "read" [ Value.int section ])

let layout t ctx =
  match Runtime.call ctx t.doc "layout" [] with
  | Value.List parts -> List.filter_map Value.to_str parts
  | _ -> []

let layout_par t ctx =
  match Runtime.call ctx t.doc "layoutPar" [] with
  | Value.List parts -> List.filter_map Value.to_str parts
  | _ -> []
