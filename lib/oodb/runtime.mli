(** Effects connecting method bodies to the execution engine.

    Method implementations are plain OCaml functions; every access to
    another encapsulated object goes through {!call}, which performs an
    [Invoke] effect handled by the engine — the engine numbers the action,
    asks the concurrency control protocol for access, runs the target
    method (possibly after blocking the calling fiber) and resumes the
    caller with the result. *)

open Ooser_core

type invocation = {
  target : Obj_id.t;
  meth_name : string;
  args : Value.t list;
}

type ctx = { top : int }
(** Capability to issue calls, provided by the engine to method bodies
    and transaction bodies. *)

type _ Effect.t +=
  | Invoke : invocation -> Value.t Effect.t
  | Invoke_par : invocation list -> Value.t list Effect.t
  | Invoke_try : invocation -> (Value.t, string) result Effect.t
  | Register_undo : (unit -> unit) -> unit Effect.t
  | Await : unit Effect.t

exception Abort of string
(** Transaction-level abort requested by user code or the system. *)

exception Abandoned
(** Used internally to discard the fibers of an aborted transaction;
    method bodies must not catch it. *)

val call : ctx -> Obj_id.t -> string -> Value.t list -> Value.t
(** Send a message (Def. 1).  Only valid under the engine's handler. *)

val call_par : ctx -> invocation list -> Value.t list
(** Send several messages that may execute in parallel — the paper's
    intra-transaction parallelism (Def. 9).  Each call runs in a fresh
    process of the same transaction, so the calls can genuinely conflict
    with one another; the results arrive in invocation order. *)

val invocation : Obj_id.t -> string -> Value.t list -> invocation

val try_call :
  ctx -> Obj_id.t -> string -> Value.t list -> (Value.t, string) result
(** Partial rollback (the heart of nested transactions): run the call as
    a subtransaction that may fail alone — on abort or any failure inside
    it, its effects are undone and [Error reason] is returned while the
    surrounding transaction continues. *)

val on_undo : ctx -> (unit -> unit) -> unit
(** Primitive methods register a closure restoring the state they are
    about to change; the engine runs it if the transaction aborts. *)

val abort : string -> 'a
(** Abort the current transaction. *)

val await : ctx -> unit
(** Park the transaction until the engine is poked from outside
    ({!Engine.poke}) — the interactive counterpart of {!call}: a network
    session body awaits the client's next command here.  Wake-ups carry
    no payload; the body re-reads the mailbox it shares with its driver,
    so spurious wake-ups are harmless.  Only valid under {!Engine.pump}
    driving; inside a batch {!Engine.run} nothing ever pokes, and an
    awaiting transaction simply never commits. *)

