(* Unit and property tests for pages, disk and buffer pool. *)

open Ooser_storage

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_page_basic () =
  let p = Page.create ~size:256 () in
  check_int "empty count" 0 (Page.record_count p);
  let s0 = Option.get (Page.insert p "hello") in
  let s1 = Option.get (Page.insert p "world") in
  check_bool "distinct slots" true (s0 <> s1);
  Alcotest.(check (option string)) "get" (Some "hello") (Page.get p s0);
  check_bool "update same size" true (Page.update p s0 "HELLO");
  Alcotest.(check (option string)) "updated" (Some "HELLO") (Page.get p s0);
  check_bool "update different size" true (Page.update p s0 "longer-record");
  Alcotest.(check (option string)) "resized" (Some "longer-record") (Page.get p s0);
  check_bool "delete" true (Page.delete p s1);
  check_bool "double delete" false (Page.delete p s1);
  Alcotest.(check (option string)) "dead slot" None (Page.get p s1);
  check_int "count after delete" 1 (Page.record_count p)

let test_page_slot_reuse () =
  let p = Page.create ~size:256 () in
  let s0 = Option.get (Page.insert p "aaa") in
  ignore (Option.get (Page.insert p "bbb"));
  check_bool "del" true (Page.delete p s0);
  let s2 = Option.get (Page.insert p "ccc") in
  check_int "dead slot reused" s0 s2;
  check_int "directory did not grow" 2 (Page.num_slots p)

let test_page_full_and_compaction () =
  let p = Page.create ~size:128 () in
  (* fill it up *)
  let rec fill acc =
    match Page.insert p (String.make 10 'x') with
    | Some s -> fill (s :: acc)
    | None -> acc
  in
  let slots = fill [] in
  check_bool "filled some" true (List.length slots > 3);
  check_bool "rejects when full" true (Page.insert p (String.make 50 'y') = None);
  (* delete every other record; the freed space is fragmented *)
  List.iteri (fun i s -> if i mod 2 = 0 then ignore (Page.delete p s)) slots;
  (* a larger record than any single hole must still fit via compaction *)
  let freed = Page.free_space p in
  check_bool "has free space" true (freed >= 20);
  check_bool "insert after compaction" true (Page.insert p (String.make 20 'z') <> None)

let test_page_kind_roundtrip () =
  let p = Page.create ~size:128 () in
  Page.set_kind p 7;
  check_int "kind" 7 (Page.kind p);
  ignore (Page.insert p "data");
  check_int "kind survives inserts" 7 (Page.kind p)

let test_disk () =
  let d = Disk.create ~page_size:128 () in
  let p0 = Disk.alloc d in
  let p1 = Disk.alloc d in
  check_int "ids sequential" (p0 + 1) p1;
  let img = Bytes.make 128 'a' in
  Disk.write d p0 img;
  Bytes.set img 0 'b';
  (* the disk stores a private copy *)
  check_bool "write copied" true (Bytes.get (Disk.read d p0) 0 = 'a');
  check_bool "bad id" true
    (match Disk.read d 99 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "bad size" true
    (match Disk.write d p0 (Bytes.make 4 'x') with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* only the successful read counts; the out-of-range one raised first *)
  check_int "io counted" 1 (Disk.reads d)

let test_buffer_pool_pin_eviction () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:2 d in
  let p0 = Buffer_pool.alloc pool in
  let p1 = Buffer_pool.alloc pool in
  let p2 = Buffer_pool.alloc pool in
  (* write through p0 *)
  let pg = Buffer_pool.pin pool p0 in
  ignore (Page.insert pg "zero");
  Buffer_pool.unpin ~dirty:true pool p0;
  (* touch p1 and p2 to evict p0 (capacity 2) *)
  ignore (Buffer_pool.pin pool p1);
  Buffer_pool.unpin pool p1;
  ignore (Buffer_pool.pin pool p2);
  Buffer_pool.unpin pool p2;
  check_bool "evictions happened" true (Buffer_pool.evictions pool > 0);
  (* p0 must come back from disk with its record *)
  let pg = Buffer_pool.pin pool p0 in
  Alcotest.(check (option string)) "durable through eviction" (Some "zero")
    (Page.get pg 0);
  Buffer_pool.unpin pool p0

(* A miss on a full pool reads the new page into the evicted frame's
   bytes.  Each page must still show its own contents afterwards — the
   dirty victim's write-back must land before its bytes are overwritten
   — and every miss must still be a counted disk read. *)
let test_buffer_pool_frame_reuse () =
  let d = Disk.create ~page_size:128 () in
  let page_with record =
    let id = Disk.alloc d in
    let pg = Page.create ~size:128 () in
    Option.iter (fun r -> ignore (Page.insert pg r)) record;
    Disk.write d id (Page.to_bytes pg);
    id
  in
  let a = page_with None in
  let b = page_with (Some "bee") and c = page_with (Some "sea") in
  let pool = Buffer_pool.create ~capacity:2 d in
  let reads0 = Disk.reads d in
  let shows what id record =
    let pg = Buffer_pool.pin pool id in
    Alcotest.(check (option string)) what record (Page.get pg 0);
    Buffer_pool.unpin pool id;
    pg
  in
  let pa = Buffer_pool.pin pool a in
  ignore (Page.insert pa "ay");
  Buffer_pool.unpin ~dirty:true pool a;
  ignore (shows "B on first pin" b (Some "bee"));
  let pc = shows "C in A's old frame" c (Some "sea") in
  check_bool "C reuses the bytes of evicted A" true
    (Page.to_bytes pc == Page.to_bytes pa);
  ignore (shows "A after write-back and re-read" a (Some "ay"));
  ignore (shows "B after its eviction" b (Some "bee"));
  ignore (shows "C after its eviction" c (Some "sea"));
  check_int "every miss read the disk" 6 (Disk.reads d - reads0);
  check_int "evictions" 4 (Buffer_pool.evictions pool)

let test_buffer_pool_pool_full () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:1 d in
  let p0 = Buffer_pool.alloc pool in
  let p1 = Buffer_pool.alloc pool in
  ignore (Buffer_pool.pin pool p0);
  check_bool "pool full raises" true
    (match Buffer_pool.pin pool p1 with
    | exception Buffer_pool.Pool_full -> true
    | _ -> false);
  Buffer_pool.unpin pool p0

let test_with_page_exception_safety () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:2 d in
  let p0 = Buffer_pool.alloc pool in
  (match Buffer_pool.with_page pool p0 ~f:(fun _ -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected exception");
  (* page must be unpinned: pinning to capacity works *)
  ignore (Buffer_pool.pin pool p0);
  Buffer_pool.unpin pool p0

(* Property: a page behaves like a slot map. *)
let prop_page_model =
  let open QCheck2 in
  let gen_ops =
    Gen.(
      list_size (int_bound 60)
        (oneof
           [
             map (fun n -> `Insert (String.make (1 + (n mod 12)) 'r')) (int_bound 100);
             map (fun s -> `Delete s) (int_bound 10);
             map (fun (s, n) -> `Update (s, String.make (1 + (n mod 12)) 'u'))
               (pair (int_bound 10) (int_bound 100));
           ]))
  in
  QCheck2.Test.make ~name:"page behaves like a slot map" ~count:200 gen_ops
    (fun ops ->
      let p = Page.create ~size:512 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | `Insert r -> (
              match Page.insert p r with
              | Some s -> Hashtbl.replace model s r
              | None -> ())
          | `Delete s ->
              let deleted = Page.delete p s in
              if deleted then Hashtbl.remove model s
              else assert (not (Hashtbl.mem model s))
          | `Update (s, r) ->
              let updated = Page.update p s r in
              if updated then Hashtbl.replace model s r)
        ops;
      Hashtbl.fold
        (fun s r ok -> ok && Page.get p s = Some r)
        model true
      && Page.record_count p = Hashtbl.length model)

(* Property: the pool evicts exactly like a reference model that picks
   the unpinned frame with the smallest last-use stamp, stamping a frame
   on every pin.  Random sequences of [alloc] and [with_page] (with page
   writes and nested pins) on pools of 2-8 frames must give the same
   evicted page at every pin, the same eviction count, and the same
   bytes in every frame and on disk. *)
type pool_op = Alloc | Access of int * (int * char) option * pool_op list

let page_size = 64

module Pool_model = struct
  type frame = {
    mutable pins : int;
    mutable dirty : bool;
    mutable last_use : int;
    bytes : Bytes.t;
  }

  type t = {
    capacity : int;
    frames : (int, frame) Hashtbl.t;
    disk : (int, Bytes.t) Hashtbl.t;
    mutable clock : int;
    mutable evictions : int;
  }

  let create capacity =
    { capacity; frames = Hashtbl.create 8; disk = Hashtbl.create 8; clock = 0; evictions = 0 }

  let tick m =
    m.clock <- m.clock + 1;
    m.clock

  (* the evicted page, if the pin missed on a full pool *)
  let pin m id =
    match Hashtbl.find_opt m.frames id with
    | Some f ->
        f.pins <- f.pins + 1;
        f.last_use <- tick m;
        (f.bytes, None)
    | None ->
        let evicted =
          if Hashtbl.length m.frames < m.capacity then None
          else begin
            let victim =
              Hashtbl.fold
                (fun vid f best ->
                  match best with
                  | _ when f.pins > 0 -> best
                  | Some (_, b) when b.last_use <= f.last_use -> best
                  | _ -> Some (vid, f))
                m.frames None
            in
            match victim with
            | None -> raise Buffer_pool.Pool_full
            | Some (vid, f) ->
                if f.dirty then Hashtbl.replace m.disk vid (Bytes.copy f.bytes);
                Hashtbl.remove m.frames vid;
                m.evictions <- m.evictions + 1;
                Some vid
          end
        in
        let bytes = Bytes.copy (Hashtbl.find m.disk id) in
        Hashtbl.replace m.frames id { pins = 1; dirty = false; last_use = tick m; bytes };
        (bytes, evicted)

  let unpin m id ~dirty =
    let f = Hashtbl.find m.frames id in
    f.pins <- f.pins - 1;
    if dirty then f.dirty <- true
end

let prop_buffer_pool_lru_model =
  let open QCheck2 in
  let gen_op =
    Gen.fix
      (fun self depth ->
        let write =
          Gen.(opt (pair (int_bound (page_size - 1)) (map Char.chr (int_range 97 122))))
        in
        let access nested =
          Gen.(map3 (fun p w ops -> Access (p, w, ops)) (int_bound 20) write nested)
        in
        if depth = 0 then Gen.(frequency [ (1, return Alloc); (3, access (return [])) ])
        else
          Gen.(
            frequency
              [
                (1, return Alloc);
                (3, access (list_size (int_bound 2) (self (depth - 1))));
              ]))
  in
  let gen =
    Gen.(pair (int_range 2 8) (list_size (int_range 1 40) (gen_op 3)))
  in
  let print (capacity, ops) =
    let rec pp = function
      | Alloc -> "alloc"
      | Access (p, w, ops) ->
          Printf.sprintf "page%d%s[%s]" p
            (match w with Some (i, c) -> Printf.sprintf " %d:=%c" i c | None -> "")
            (String.concat "; " (List.map pp ops))
    in
    Printf.sprintf "capacity %d: %s" capacity (String.concat "; " (List.map pp ops))
  in
  QCheck2.Test.make ~name:"buffer pool evicts like the LRU model" ~count:300 ~print gen
    (fun (capacity, ops) ->
      let d = Disk.create ~page_size () in
      let pool = Buffer_pool.create ~capacity d in
      let m = Pool_model.create capacity in
      let pages = ref 0 in
      let agree = ref true in
      let check b = if not b then agree := false in
      (* pin through the pool and the model: the same page must go, and
         the frame must hold the same bytes *)
      let pin ?(real_pin = Buffer_pool.pin pool) id =
        let before = Buffer_pool.resident pool in
        let real =
          match real_pin id with
          | page -> Ok page
          | exception Buffer_pool.Pool_full -> Error ()
        in
        let model =
          match Pool_model.pin m id with
          | r -> Ok r
          | exception Buffer_pool.Pool_full -> Error ()
        in
        match (real, model) with
        | Ok page, Ok (bytes, evicted) ->
            let after = Buffer_pool.resident pool in
            let gone = List.filter (fun p -> not (List.mem p after)) before in
            check (gone = Option.to_list evicted);
            check (Bytes.equal (Page.to_bytes page) bytes);
            (page, bytes)
        | Error (), Error () -> raise Buffer_pool.Pool_full
        | _ ->
            check false;
            raise Buffer_pool.Pool_full
      in
      let rec run = function
        | Alloc ->
            (* [alloc] materialises the page with a pin and a dirty
               unpin *)
            let id = !pages in
            incr pages;
            Hashtbl.replace m.Pool_model.disk id (Bytes.make page_size '\000');
            let real_pin _ =
              let id' = Buffer_pool.alloc pool in
              check (id' = id);
              Buffer_pool.pin pool id
            in
            ignore (pin ~real_pin id);
            Buffer_pool.unpin pool id;
            Pool_model.unpin m id ~dirty:true
        | Access (_, _, _) when !pages = 0 -> ()
        | Access (p, write, nested) -> (
            let id = p mod !pages in
            let page, bytes = pin id in
            Option.iter
              (fun (i, c) ->
                Bytes.set (Page.to_bytes page) i c;
                Bytes.set bytes i c)
              write;
            match List.iter run nested with
            | () ->
                Buffer_pool.unpin ~dirty:(write <> None) pool id;
                Pool_model.unpin m id ~dirty:(write <> None)
            | exception e ->
                Buffer_pool.unpin pool id;
                Pool_model.unpin m id ~dirty:false;
                raise e)
      in
      List.iter (fun op -> try run op with Buffer_pool.Pool_full -> ()) ops;
      check (Buffer_pool.evictions pool = m.Pool_model.evictions);
      check
        (Buffer_pool.resident pool
        = List.sort Int.compare
            (Hashtbl.fold (fun id _ acc -> id :: acc) m.Pool_model.frames []));
      (* every page's bytes: a resident page's frame (read through a pin,
         which hits) and every page's disk image *)
      for id = 0 to !pages - 1 do
        check (Bytes.equal (Disk.read d id) (Hashtbl.find m.Pool_model.disk id));
        match Hashtbl.find_opt m.Pool_model.frames id with
        | Some f ->
            let page = Buffer_pool.pin pool id in
            check (Bytes.equal (Page.to_bytes page) f.Pool_model.bytes);
            Buffer_pool.unpin pool id
        | None -> ()
      done;
      !agree)

let suites =
  [
    ( "storage",
      [
        Alcotest.test_case "page basics" `Quick test_page_basic;
        Alcotest.test_case "slot reuse" `Quick test_page_slot_reuse;
        Alcotest.test_case "page full and compaction" `Quick
          test_page_full_and_compaction;
        Alcotest.test_case "page kind" `Quick test_page_kind_roundtrip;
        Alcotest.test_case "disk volume" `Quick test_disk;
        Alcotest.test_case "buffer pool pin/evict" `Quick
          test_buffer_pool_pin_eviction;
        Alcotest.test_case "buffer pool full" `Quick test_buffer_pool_pool_full;
        Alcotest.test_case "buffer pool frame reuse" `Quick
          test_buffer_pool_frame_reuse;
        Alcotest.test_case "with_page exception safety" `Quick
          test_with_page_exception_safety;
        QCheck_alcotest.to_alcotest prop_page_model;
        QCheck_alcotest.to_alcotest prop_buffer_pool_lru_model;
      ] );
  ]
