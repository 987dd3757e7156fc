(* A compound document with three levels of nesting — "processing the
   layout of a document consists of processing the contents, the
   chapters, ..." (Fig. 1):

     Book ──▶ Chapter objects ──▶ Section objects ──▶ Page objects

   Edits in different chapters commute at book level; edits of different
   sections commute at chapter level; sections of one chapter share pages,
   so concurrent edits collide at the bottom exactly as in the paper's
   index example — three levels of semantic inheritance for the checker to
   cut short. *)

open Ooser_core
open Ooser_oodb
open Ooser_storage

type t = {
  db : Database.t;
  pool : Buffer_pool.t;
  book : Obj_id.t;
  chapters : int;
  sections_per_chapter : int;
  rid : (int * int) array array;  (* chapter -> section -> page, slot *)
}

let chapter_obj name c = Obj_id.v (Printf.sprintf "%s.Ch%d" name c)
let section_obj name c s = Obj_id.v (Printf.sprintf "%s.Ch%d.Sec%d" name c s)
let page_obj name pid = Obj_id.v (Printf.sprintf "%s.Page%d" name pid)

let page_spec = Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ]

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

let register_section t name c s =
  let pid, slot = t.rid.(c).(s) in
  let read ctx _ = Runtime.call ctx (page_obj name pid) "read" [ Value.int slot ] in
  let write ctx args =
    match args with
    | [ Value.Str text ] ->
        (* return the old text so the compensation can restore it after
           this subtransaction has committed at its level *)
        let old = Runtime.call ctx (page_obj name pid) "read" [ Value.int slot ] in
        ignore
          (Runtime.call ctx (page_obj name pid) "write"
             [ Value.int slot; Value.str text ]);
        old
    | _ -> invalid_arg "section write"
  in
  let compensate_write _args old =
    match old with
    | Value.Str _ ->
        Database.Inverse
          { Runtime.target = section_obj name c s;
            meth_name = "write"; args = [ old ] }
    | _ -> Database.Keep_undo
  in
  Database.register_or_replace t.db (section_obj name c s) ~spec:section_spec
    [
      ("read", Database.composite read);
      ("write", Database.composite ~compensate:compensate_write write);
    ]

(* Chapter-level semantics: edits of different sections commute; the
   chapter-wide layout pass conflicts with every edit in the chapter. *)
let chapter_spec =
  let keyed =
    Commutativity.by_key ~key_of:Commutativity.first_arg
      (Commutativity.predicate ~stable:true ~name:"chapter-keyed" (fun a b ->
           match (Action.meth a, Action.meth b) with
           | "read", "read" -> true
           | _ -> false))
  in
  Commutativity.predicate ~stable:true ~name:"chapter" (fun a b ->
      match (Action.meth a, Action.meth b) with
      | "layout", "layout" -> false
      | "layout", _ | _, "layout" -> false
      | _ -> Commutativity.test keyed a b)

let register_chapter t name c =
  let sec args =
    match args with
    | Value.Int s :: _ when s >= 0 && s < t.sections_per_chapter -> s
    | _ -> invalid_arg "bad section number"
  in
  let edit ctx args =
    match args with
    | [ Value.Int _; Value.Str text ] ->
        Runtime.call ctx (section_obj name c (sec args)) "write" [ Value.str text ]
    | _ -> invalid_arg "chapter edit"
  in
  let read ctx args = Runtime.call ctx (section_obj name c (sec args)) "read" [] in
  let layout ctx _ =
    Value.list
      (List.init t.sections_per_chapter (fun s ->
           Runtime.call ctx (section_obj name c s) "read" []))
  in
  Database.register_or_replace t.db (chapter_obj name c) ~spec:chapter_spec
    [
      ("edit", Database.composite edit);
      ("read", Database.composite read);
      ("layout", Database.composite layout);
    ]

(* Book-level semantics: operations on different chapters commute; the
   whole-book layout conflicts with every edit. *)
let book_spec =
  let keyed =
    Commutativity.by_key ~key_of:Commutativity.first_arg
      (Commutativity.predicate ~stable:true ~name:"book-keyed" (fun a b ->
           match (Action.meth a, Action.meth b) with
           | "read", "read" -> true
           | _ -> false))
  in
  Commutativity.predicate ~stable:true ~name:"book" (fun a b ->
      match (Action.meth a, Action.meth b) with
      | "layout", "layout" -> false
      | "layout", _ | _, "layout" -> false
      | _ -> Commutativity.test keyed a b)

let register_book t name =
  let ch args =
    match args with
    | Value.Int c :: _ when c >= 0 && c < t.chapters -> c
    | _ -> invalid_arg "bad chapter number"
  in
  let edit ctx args =
    match args with
    | [ Value.Int _; Value.Int s; Value.Str text ] ->
        Runtime.call ctx (chapter_obj name (ch args)) "edit"
          [ Value.int s; Value.str text ]
    | _ -> invalid_arg "book edit"
  in
  let read ctx args =
    match args with
    | [ Value.Int _; Value.Int s ] ->
        Runtime.call ctx (chapter_obj name (ch args)) "read" [ Value.int s ]
    | _ -> invalid_arg "book read"
  in
  let layout ctx _ =
    (* chapter layouts may run as parallel branches (Def. 9) *)
    Value.list
      (Runtime.call_par ctx
         (List.init t.chapters (fun c ->
              Runtime.invocation (chapter_obj name c) "layout" [])))
  in
  Database.register_or_replace t.db t.book ~spec:book_spec
    [
      ("edit", Database.composite edit);
      ("read", Database.composite read);
      ("layout", Database.composite layout);
    ]

let create ?(name = "Book") ?(chapters = 3) ?(sections_per_chapter = 4)
    ?(page_size = 4096) db =
  if chapters <= 0 || sections_per_chapter <= 0 then
    invalid_arg "Compound_doc.create";
  let disk = Disk.create ~page_size () in
  let pool = Buffer_pool.create ~capacity:64 disk in
  let t =
    {
      db;
      pool;
      book = Obj_id.v name;
      chapters;
      sections_per_chapter;
      rid = Array.init chapters (fun _ -> Array.make sections_per_chapter (0, 0));
    }
  in
  (* one shared page per chapter: its sections are co-located *)
  for c = 0 to chapters - 1 do
    let pid = Buffer_pool.alloc pool in
    register_page t name pid;
    for s = 0 to sections_per_chapter - 1 do
      let slot =
        Buffer_pool.with_page pool pid ~f:(fun page ->
            match Page.insert page (Printf.sprintf "ch%d sec%d" c s) with
            | Some sl -> (sl, true)
            | None -> failwith "compound page full")
      in
      t.rid.(c).(s) <- (pid, slot);
      register_section t name c s
    done;
    register_chapter t name c
  done;
  register_book t name;
  t

let chapters t = t.chapters
let sections_per_chapter t = t.sections_per_chapter

let edit t ctx ~chapter ~section ~text =
  ignore
    (Runtime.call ctx t.book "edit"
       [ Value.int chapter; Value.int section; Value.str text ])

let read t ctx ~chapter ~section =
  Value.to_str_exn
    (Runtime.call ctx t.book "read" [ Value.int chapter; Value.int section ])

let layout t ctx =
  match Runtime.call ctx t.book "layout" [] with
  | Value.List chs ->
      List.map
        (fun ch ->
          match ch with
          | Value.List parts -> List.filter_map Value.to_str parts
          | _ -> [])
        chs
  | _ -> []
