(* Fault injection for the durability stack.

   A crash point is a named site in the logging / recovery code path; an
   armed injector counts hits of its site and raises [Crashed] on the
   chosen one, modelling the process dying at exactly that instruction.
   The harness catches the exception, takes the stable log image
   ([Oplog.crash]) and recovers into a fresh engine — everything the real
   process would have in memory is deliberately abandoned. *)

type site =
  | Before_append  (* process dies before the record reaches the log *)
  | After_append  (* record appended but not yet forced: lost on crash *)
  | After_force  (* record stable: must survive recovery *)
  | Mid_undo  (* during recovery's own undo pass (double crash) *)

exception Crashed of site

type t = { site : site; mutable fuel : int; mutable fired : bool }

let arm site ~after = { site; fuel = after; fired = false }

let site_name = function
  | Before_append -> "before-append"
  | After_append -> "after-append"
  | After_force -> "after-force"
  | Mid_undo -> "mid-undo"

let fired t = t.fired

(* Called from the instrumented sites.  [None] (no injector armed) is
   the production configuration and costs one branch. *)
let point inj site =
  match inj with
  | Some c when c.site = site && not c.fired ->
      if c.fuel <= 0 then begin
        c.fired <- true;
        raise (Crashed site)
      end
      else c.fuel <- c.fuel - 1
  | Some _ | None -> ()

