(** Recovery analysis: from a stable log prefix to a replay plan.

    Pure — the executor that drives the plan through real engine
    dispatch is [Engine.recover].  Analysis groups records into
    attempts and classifies them; the schedule replays every logged
    root call in original log order (repeating history at the method
    level — winners' reads may depend on committed subtransactions of
    later-aborted attempts); Aborted attempts are compensated at their
    original decision point, Incomplete ones (losers) after the
    schedule in reverse begin order. *)

type disposition = Committed | Aborted of string | Incomplete

type attempt = {
  top : int;
  attempt : int;
  name : string;
  mutable calls : (int * Oplog.invocation * Oplog.invocation option) list;
      (** (seq, invocation, compensation), original log order *)
  mutable subcommits : int;
  mutable disposition : disposition;
  mutable skip : bool;
      (** already applied (snapshot dedup): do not replay *)
}

type step =
  | Start of attempt
  | Replay of attempt * Oplog.invocation * Oplog.invocation option
  | Decide of attempt

type plan = {
  schedule : step list;  (** original log order *)
  attempts : attempt list;  (** begin order *)
  winners : (int * int) list;  (** commit order *)
  aborted : (int * int) list;
  losers : (int * int) list;  (** incomplete at the crash, begin order *)
  skipped : (int * int) list;
  next_top : int;
}

val key : attempt -> int * int

val analyze : ?applied:(int * int) list -> Oplog.record list -> plan
(** [applied] marks attempts whose effects are already durable (snapshot
    entries); they are kept in the plan but flagged [skip]. *)

val snapshot_of : ?base:Snapshot.t -> plan -> Snapshot.t
(** Compact the plan's (non-skipped) winners into snapshot entries in
    commit order, appended to [base]'s. *)

