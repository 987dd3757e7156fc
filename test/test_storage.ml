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
      ] );
  ]
