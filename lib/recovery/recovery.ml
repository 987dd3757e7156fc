(* Recovery analysis: from a stable log prefix to a replay plan.

   Pure — no engine here (the executor that drives the plan through real
   method dispatch lives with the engine, which this library cannot
   depend on).  The plan realises the multi-level discipline:

     analysis — group records into attempts, classify each as Committed
                (stable COMMIT), Aborted (stable ABORT) or Incomplete
                (in flight at the crash: a loser);
     redo     — the schedule replays every logged root call of every
                attempt in original log order ("repeating history" at
                the method level: winners' reads may depend on the
                committed subtransactions of attempts that later
                aborted, so losers' calls are replayed too and then
                compensated);
     undo     — Aborted attempts are aborted at their original decision
                point in the schedule; Incomplete attempts carry no
                Decide step and are compensated after the schedule, in
                reverse begin order (reverse inheritance order across
                tops — within a top the engine's own abort path unwinds
                compensations newest-first, Defs. 10-13).

   Attempts found in [applied] (the snapshot's entries, or a previous
   recovery's retired set) are marked [skip]: their effects are already
   durable, making replay idempotent under (top, attempt) dedup. *)

type disposition = Committed | Aborted of string | Incomplete

type attempt = {
  top : int;
  attempt : int;
  name : string;
  mutable calls : (int * Oplog.invocation * Oplog.invocation option) list;
      (* (seq, invocation, compensation), original log order *)
  mutable subcommits : int;
  mutable disposition : disposition;
  mutable skip : bool;  (* already applied: dedup against the snapshot *)
}

type step =
  | Start of attempt
  | Replay of attempt * Oplog.invocation * Oplog.invocation option
  | Decide of attempt

type plan = {
  schedule : step list;  (* original log order *)
  attempts : attempt list;  (* begin order *)
  winners : (int * int) list;  (* commit order *)
  aborted : (int * int) list;
  losers : (int * int) list;  (* incomplete at the crash, begin order *)
  skipped : (int * int) list;
  next_top : int;
}

let key a = (a.top, a.attempt)

let analyze ?(applied = []) records =
  let attempts = ref [] in  (* newest first *)
  let schedule = ref [] in  (* newest first *)
  let winners = ref [] in
  let aborted = ref [] in
  let find top att =
    List.find_opt (fun a -> a.top = top && a.attempt = att) !attempts
  in
  List.iter
    (fun record ->
      match record with
      | Oplog.Begin { top; attempt; name } ->
          let a =
            {
              top;
              attempt;
              name;
              calls = [];
              subcommits = 0;
              disposition = Incomplete;
              skip = List.mem (top, attempt) applied;
            }
          in
          attempts := a :: !attempts;
          schedule := Start a :: !schedule
      | Oplog.Call { top; attempt; seq; inv; comp } -> (
          match find top attempt with
          | Some a ->
              a.calls <- a.calls @ [ (seq, inv, comp) ];
              schedule := Replay (a, inv, comp) :: !schedule
          | None -> () (* CALL without a stable BEGIN: torn prefix, drop *))
      | Oplog.Subcommit { top; attempt; _ } -> (
          match find top attempt with
          | Some a -> a.subcommits <- a.subcommits + 1
          | None -> ())
      | Oplog.Commit { top; attempt } -> (
          match find top attempt with
          | Some a ->
              a.disposition <- Committed;
              winners := key a :: !winners;
              schedule := Decide a :: !schedule
          | None -> ())
      | Oplog.Abort { top; attempt; reason } -> (
          match find top attempt with
          | Some a ->
              a.disposition <- Aborted reason;
              aborted := key a :: !aborted;
              schedule := Decide a :: !schedule
          | None -> ()))
    records;
  let attempts = List.rev !attempts in
  let losers =
    List.filter_map
      (fun a -> if a.disposition = Incomplete then Some (key a) else None)
      attempts
  in
  let next_top =
    List.fold_left (fun acc a -> max acc (a.top + 1)) 1 attempts
  in
  {
    schedule = List.rev !schedule;
    attempts;
    winners = List.rev !winners;
    aborted = List.rev !aborted;
    losers;
    skipped = List.filter_map (fun a -> if a.skip then Some (key a) else None) attempts;
    next_top;
  }

(* Compact a plan's winners into snapshot entries (commit order),
   appended to an existing snapshot's entries.  Attempts already covered
   by [base] (marked [skip]) are not duplicated. *)
let snapshot_of ?(base = Snapshot.empty) plan =
  let fresh =
    List.filter_map
      (fun k ->
        match
          List.find_opt (fun a -> key a = k && not a.skip) plan.attempts
        with
        | Some a ->
            Some
              {
                Snapshot.top = a.top;
                attempt = a.attempt;
                name = a.name;
                calls = List.map (fun (_, inv, _) -> inv) a.calls;
              }
        | None -> None)
      plan.winners
  in
  {
    Snapshot.next_top = max base.Snapshot.next_top plan.next_top;
    entries = base.Snapshot.entries @ fresh;
  }

