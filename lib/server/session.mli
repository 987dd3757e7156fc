(** Per-connection session state: the HELLO/BEGIN/CALL/COMMIT state
    machine and the command-log bridge between the interactive wire
    protocol and the engine's retryable transaction bodies.

    The transaction's {!Ooser_oodb.Call_log} replays from the start on
    every engine-internal retry (wound-wait restart, certification
    failure) and parks on {!Ooser_oodb.Runtime.await} past its end, so
    retries are invisible to the client. *)

open Ooser_core
open Ooser_oodb

type txn = {
  top : int;
  began : float;
  log : Call_log.t;  (** CALLs so far; COMMIT finishes it *)
  mutable calls_sent : int;
  mutable calls_flushed : int;
  call_at : (int, float) Hashtbl.t;
  mutable abort_requested : bool;
}

type phase =
  | Fresh
  | Idle
  | Begun_wait of { name : string; timeout_ms : int }
  | In_txn of txn
  | Dead_txn of string
      (** aborted while no response was owed; the reason answers the
          client's next request *)

type t = {
  sid : int;
  mutable client : string;
  mutable phase : phase;
}

val create : sid:int -> t
val new_txn : top:int -> began:float -> txn

val push_call : txn -> now:float -> Obj_id.t -> string -> Value.t list -> unit
(** Append a CALL to the log, stamping its arrival time for latency
    accounting; the engine must be poked afterwards. *)

val body : txn -> Runtime.ctx -> Value.t
(** The transaction body to {!Ooser_oodb.Engine.submit}: the log's
    {!Ooser_oodb.Call_log.body}. *)
