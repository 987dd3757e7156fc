(** The command-log bridge between a driver that learns a transaction's
    calls one at a time (a network session, a shard branch, a recovery
    replay) and the engine's retryable transaction bodies.

    {!body} replays the log from call 0 on every attempt (wound-wait
    restart, certification failure) and parks on {!Runtime.await} past
    its end, so engine-internal retries are invisible to the driver —
    except that a result read before the transaction decides is
    provisional: a later attempt may overwrite it. *)

open Ooser_core

type t

val create : unit -> t

val push : t -> Obj_id.t -> string -> Value.t list -> unit
(** Append a call; the driver then pokes the transaction.  Ignored once
    the log is finished: such a call never executes. *)

val finish : t -> unit
(** No more calls: an attempt past the last call returns. *)

val finished : t -> bool
val length : t -> int

val result : t -> int -> (Value.t, string) result option
(** The latest attempt's result of call [n], if it ran. *)

val n_results : t -> int
(** Calls with a result from some attempt. *)

val errors : t -> int
(** [Error] results — once decided, those of the deciding attempt. *)

val body : t -> Runtime.ctx -> Value.t
(** The transaction body: once finished, returns the last successful
    call's value ([Value.unit] when none succeeded). *)
