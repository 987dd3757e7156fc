(* Untimed correctness checks over what the client saw.  They are pure
   functions of the recorded transactions and of values read back from a
   server, so the self-test (test_checks.ml) can hand each one a
   falsified input and require it to fail. *)

open Ooser_core
module Wire = Ooser_server.Wire

type outcome = Committed | Aborted of string | Proto_error of string

(* One client transaction: its CALL requests, the reply to each call
   that got one (Result or Failed), and how it ended. *)
type txn = {
  calls : Wire.request array;
  replies : Wire.response option array;
  mutable top : int;  (* the server's transaction id, from Begun *)
  mutable began : float;
  mutable ended : float;
  mutable outcome : outcome option;
}

let txn calls =
  {
    calls;
    replies = Array.make (Array.length calls) None;
    top = 0;
    began = 0.0;
    ended = 0.0;
    outcome = None;
  }

let committed t = t.outcome = Some Committed

let ( let* ) = Result.bind

let first_error f l =
  List.fold_left (fun acc x -> match acc with Error _ -> acc | Ok () -> f x) (Ok ()) l

(* Every transaction is decided, and no reply was a protocol Error. *)
let decided txns =
  first_error
    (fun t ->
      match t.outcome with
      | Some (Committed | Aborted _) -> Ok ()
      | Some (Proto_error msg) -> Error ("protocol error reply: " ^ msg)
      | None -> Error "a transaction was never decided")
    txns

let quiescent q = if q then Ok () else Error "lock table not quiescent after the drain"

let account_index obj = Scanf.sscanf_opt obj "Account%d%!" Fun.id

(* Which calls of a committed transaction took effect, read from the
   server's committed call tree: [tree] lists its root-level children
   as (call index, call).  A call that failed in the committing attempt
   is absent.

   Call results sent before COMMITTED are provisional (see [Session]):
   when the engine retries a transaction internally, the replay may see
   another state, and a withdraw the client was told succeeded can be
   refused by the escrow bound in the attempt that commits, or the
   reverse.  So the tree decides each call's effect; a withdraw whose
   acknowledgement the tree contradicts counts as revised.  Every other
   disagreement is an error: a committed transaction missing from the
   server's history, a tree call the client never sent, or a deposit
   (which no bound can refuse) acknowledged one way and committed the
   other. *)
let effects ~tree (t : txn) =
  match tree with
  | None -> Error (Printf.sprintf "committed transaction %d missing from the server's history" t.top)
  | Some children ->
      let applied = Array.make (Array.length t.calls) false in
      let* () =
        first_error
          (fun (i, call) ->
            if i >= 0 && i < Array.length t.calls && t.calls.(i) = call then begin
              applied.(i) <- true;
              Ok ()
            end
            else Error (Printf.sprintf "transaction %d committed a call it never sent" t.top))
          children
      in
      let revised = ref 0 in
      let* () =
        first_error
          (fun i ->
            let acked = match t.replies.(i) with Some (Wire.Result _) -> true | _ -> false in
            match t.calls.(i) with
            | _ when acked = applied.(i) -> Ok ()
            | Wire.Call { meth = "withdraw"; _ } ->
                incr revised;
                Ok ()
            | _ -> Error (Printf.sprintf "transaction %d: call %d acknowledged but not committed as answered" t.top i))
          (List.init (Array.length t.calls) Fun.id)
      in
      Ok (applied, !revised)

(* The initial balance plus the deposits minus the withdrawals that
   committed transactions applied; also the number of revised
   acknowledgements.  [tree top] is the server's committed call tree of
   [top]. *)
let expected_balances ~accounts ~initial ~tree txns =
  let bal = Array.make accounts initial in
  let revised = ref 0 in
  let* () =
    first_error
      (fun t ->
        if not (committed t) then Ok ()
        else
          let* applied, r = effects ~tree:(tree t.top) t in
          revised := !revised + r;
          Array.iteri
            (fun i call ->
              match call with
              | Wire.Call { obj; meth; args = [ Value.Int n ] } when applied.(i) -> (
                  match account_index obj with
                  | Some a when a >= 0 && a < accounts ->
                      if meth = "deposit" then bal.(a) <- bal.(a) + n
                      else if meth = "withdraw" then bal.(a) <- bal.(a) - n
                  | _ -> ())
              | _ -> ())
            t.calls;
          Ok ())
      txns
  in
  Ok (bal, !revised)

let balance_calls ~accounts =
  Array.init accounts (fun a ->
      Wire.Call { obj = Printf.sprintf "Account%d" a; meth = "balance"; args = [] })

(* [observed] is the committed read-back transaction of [balance_calls]. *)
let balances ~what ~expected (observed : txn) =
  let* () =
    if committed observed then Ok () else Error (what ^ ": balance read did not commit")
  in
  let bad = ref None in
  Array.iteri
    (fun a want ->
      match observed.replies.(a) with
      | Some (Wire.Result (Value.Int got)) when got = want -> ()
      | r ->
          if !bad = None then
            bad :=
              Some
                (Fmt.str "%s: Account%d holds %a, expected %d" what a
                   Fmt.(option ~none:(any "no reply") Wire.pp_response)
                   r want))
    expected;
  match !bad with None -> Ok () | Some msg -> Error msg

(* Keys of inserts that a committed transaction got a Result for. *)
let acked_inserts txns =
  List.concat_map
    (fun t ->
      if not (committed t) then []
      else
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun i call ->
                  match (call, t.replies.(i)) with
                  | Wire.Call { meth = "insert"; args = Value.Str k :: _; _ }, Some (Wire.Result _) ->
                      Some k
                  | _ -> None)
                t.calls)))
    txns

let search_calls keys =
  Array.of_list
    (List.map (fun k -> Wire.Call { obj = "Enc"; meth = "search"; args = [ Value.str k ] }) keys)

(* [searches] are committed read-back transactions of [search_calls];
   every acknowledged key must have been searched and found. *)
let inserts_found ~acked (searches : txn list) =
  let found = Hashtbl.create 1024 in
  let* () =
    first_error
      (fun t ->
        if not (committed t) then Error "search read-back did not commit"
        else begin
          Array.iteri
            (fun i call ->
              match (call, t.replies.(i)) with
              | ( Wire.Call { args = Value.Str k :: _; _ },
                  Some (Wire.Result (Value.Pair (Value.Str "found", _))) ) ->
                  Hashtbl.replace found k ()
              | _ -> ())
            t.calls;
          Ok ()
        end)
      searches
  in
  first_error
    (fun k ->
      if Hashtbl.mem found k then Ok () else Error ("acknowledged insert " ^ k ^ " not found"))
    acked
