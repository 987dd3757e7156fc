(* Effects connecting method bodies to the execution engine.

   Method implementations are plain OCaml functions; every access to
   another encapsulated object goes through [call], which performs an
   [Invoke] effect.  The engine handles the effect: it numbers the action,
   asks the concurrency control protocol for access, runs the target
   method (possibly after blocking the calling fiber), and resumes the
   caller with the result.  This gives the engine an interleaving point at
   exactly the paper's action granularity. *)

open Ooser_core

type invocation = { target : Obj_id.t; meth_name : string; args : Value.t list }

(* The capability to issue calls; created by the engine only. *)
type ctx = { top : int }

type _ Effect.t +=
  | Invoke : invocation -> Value.t Effect.t
  | Invoke_par : invocation list -> Value.t list Effect.t
  | Invoke_try : invocation -> (Value.t, string) result Effect.t
  | Register_undo : (unit -> unit) -> unit Effect.t
  | Await : unit Effect.t

exception Abort of string
(* A transaction-level abort requested by user code or the system. *)

exception Abandoned
(* Used to discard the fibers of an aborted transaction. *)

let call (_ : ctx) target meth_name args =
  Effect.perform (Invoke { target; meth_name; args })

(* Intra-transaction parallelism (Def. 9): issue several calls whose
   executions may interleave; each runs in a fresh process of the same
   transaction, so they CAN conflict with one another. *)
let call_par (_ : ctx) invocations =
  Effect.perform (Invoke_par invocations)

let invocation target meth_name args = { target; meth_name; args }

(* Partial rollback (the heart of nested transactions): run a call as a
   subtransaction that may fail alone.  On failure its effects are undone
   and [Error reason] is returned; the surrounding transaction
   continues. *)
let try_call (_ : ctx) target meth_name args =
  Effect.perform (Invoke_try { target; meth_name; args })

let on_undo (_ : ctx) f = Effect.perform (Register_undo f)

(* Park the transaction until the engine is poked from outside
   ([Engine.poke]) — the interactive counterpart of [call]: a session
   body awaits the client's next command here.  The effect carries no
   payload; the awakened body re-reads whatever mailbox it shares with
   the driver, so a spurious wake-up is harmless. *)
let await (_ : ctx) = Effect.perform Await

let abort msg = raise (Abort msg)

