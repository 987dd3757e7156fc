(* Self-test of the benchmark's correctness checks: each check must pass
   on a consistent input and fail on a falsified one.  Runs under
   [dune runtest]; silent unless a check misjudges its input, in which
   case it names the case and exits 1. *)

open Ooser_core
module Wire = Ooser_server.Wire

let failures = ref 0

let expect name ~ok r =
  if Result.is_ok r <> ok then begin
    incr failures;
    Printf.printf "FAIL %s: the check %s\n" name
      (match r with Ok _ -> "passed" | Error msg -> "failed (" ^ msg ^ ")")
  end

let call obj meth args = Wire.Call { obj; meth; args }
let acct i = Printf.sprintf "Account%d" i
let deposit i n = call (acct i) "deposit" [ Value.int n ]
let withdraw i n = call (acct i) "withdraw" [ Value.int n ]

let txn ?(top = 0) outcome calls replies =
  let t = Checks.txn (Array.of_list calls) in
  List.iteri (fun i r -> t.Checks.replies.(i) <- r) replies;
  t.Checks.top <- top;
  t.Checks.outcome <- outcome;
  t

let ok = Some (Wire.Result Value.unit)
let refused = Some (Wire.Failed "escrow: -1 outside [0, 1000000]")

(* -- decided and quiescent ------------------------------------------------ *)

let () =
  let committed = txn (Some Checks.Committed) [ deposit 0 1 ] [ ok ] in
  let aborted = txn (Some (Checks.Aborted "wounded")) [ deposit 0 1 ] [ None ] in
  expect "decided: committed and aborted" ~ok:true (Checks.decided [ committed; aborted ]);
  expect "decided: one transaction undecided" ~ok:false
    (Checks.decided [ committed; txn None [ deposit 0 1 ] [ ok ] ]);
  expect "decided: one protocol error" ~ok:false
    (Checks.decided [ committed; txn (Some (Checks.Proto_error "ERROR protocol")) [] [] ]);
  expect "quiescent: lock table empty" ~ok:true (Checks.quiescent true);
  expect "quiescent: locks left behind" ~ok:false (Checks.quiescent false)

(* -- balances ------------------------------------------------------------- *)

(* t1 commits a deposit and a withdraw, t2 aborts, t3 commits a
   refused withdraw: balances 105, 97, 100. *)
let t1 = txn ~top:1 (Some Checks.Committed) [ deposit 0 5; withdraw 1 3 ] [ ok; ok ]
let t2 = txn ~top:2 (Some (Checks.Aborted "deadline")) [ deposit 0 4 ] [ ok ]
let t3 = txn ~top:3 (Some Checks.Committed) [ withdraw 2 200 ] [ refused ]
let history = [ t1; t2; t3 ]

let server_tree = function
  | 1 -> Some [ (0, deposit 0 5); (1, withdraw 1 3) ]
  | 3 -> Some []
  | _ -> None

let expected ?(tree = server_tree) txns =
  Checks.expected_balances ~accounts:3 ~initial:100 ~tree txns

let read_back balances =
  txn (Some Checks.Committed)
    (Array.to_list (Checks.balance_calls ~accounts:3))
    (List.map (fun b -> Some (Wire.Result (Value.int b))) balances)

let () =
  match expected history with
  | Error msg -> expect ("expected balances: " ^ msg) ~ok:true (Error msg)
  | Ok (want, revised) ->
      expect "expected balances are 105, 97, 100" ~ok:true
        (if want = [| 105; 97; 100 |] && revised = 0 then Ok () else Error "wrong balances");
      expect "balances: server agrees" ~ok:true
        (Checks.balances ~what:"live" ~expected:want (read_back [ 105; 97; 100 ]));
      expect "balances: one acknowledged deposit dropped" ~ok:false
        (Checks.balances ~what:"live" ~expected:want (read_back [ 100; 97; 100 ]));
      expect "balances: aborted deposit applied" ~ok:false
        (Checks.balances ~what:"live" ~expected:want (read_back [ 109; 97; 100 ]));
      expect "recovered balances: recovery lost the withdraw" ~ok:false
        (Checks.balances ~what:"recovered" ~expected:want (read_back [ 105; 100; 100 ]));
      expect "balances: read-back aborted" ~ok:false
        (Checks.balances ~what:"live" ~expected:want
           (let t = read_back [ 105; 97; 100 ] in
            t.Checks.outcome <- Some (Checks.Aborted "wounded");
            t))

let () =
  let lost_deposit = function 1 -> Some [ (1, withdraw 1 3) ] | top -> server_tree top in
  expect "effects: committed tree lost an acknowledged deposit" ~ok:false
    (expected ~tree:lost_deposit history);
  expect "effects: committed transaction missing from the history" ~ok:false
    (expected ~tree:(function 1 -> None | top -> server_tree top) history);
  expect "effects: tree holds a call the client never sent" ~ok:false
    (expected ~tree:(function 3 -> Some [ (0, withdraw 2 5) ] | top -> server_tree top) history);
  (* a replay refusing a withdraw the client saw succeed is documented
     behaviour: it counts as revised and the tree decides the balance *)
  let replay_refused = function 1 -> Some [ (0, deposit 0 5) ] | top -> server_tree top in
  expect "effects: replay refused an acknowledged withdraw" ~ok:true
    (match expected ~tree:replay_refused history with
    | Ok ([| 105; 100; 100 |], 1) -> Ok ()
    | Ok _ -> Error "wrong balances or revision count"
    | Error msg -> Error msg)

(* -- inserts -------------------------------------------------------------- *)

let insert k = call "Enc" "insert" [ Value.str k; Value.str "fresh" ]

let search_back found =
  let keys = List.map fst found in
  txn (Some Checks.Committed)
    (Array.to_list (Checks.search_calls keys))
    (List.map
       (fun (_, hit) ->
         Some
           (Wire.Result
              (if hit then Value.pair (Value.str "found") (Value.str "fresh")
               else Value.pair (Value.str "missing") Value.unit)))
       found)

let () =
  let inserts =
    [
      txn (Some Checks.Committed) [ insert "a"; insert "b" ] [ ok; ok ];
      txn (Some (Checks.Aborted "wounded")) [ insert "c" ] [ ok ];
      txn (Some Checks.Committed) [ insert "d" ] [ Some (Wire.Failed "duplicate") ];
    ]
  in
  let acked = Checks.acked_inserts inserts in
  expect "acked inserts are a and b" ~ok:true
    (if acked = [ "a"; "b" ] then Ok () else Error (String.concat "," acked));
  expect "inserts: every key found" ~ok:true
    (Checks.inserts_found ~acked [ search_back [ ("a", true); ("b", true) ] ]);
  expect "inserts: one committed insert key removed" ~ok:false
    (Checks.inserts_found ~acked [ search_back [ ("a", true); ("b", false) ] ]);
  expect "inserts: one key never searched" ~ok:false
    (Checks.inserts_found ~acked [ search_back [ ("a", true) ] ])

let () = if !failures > 0 then exit 1
