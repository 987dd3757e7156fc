(* A transaction's call log, bridged onto the effects engine.

   The driver decides the next call only after earlier ones ran (a
   client waits for results; a recovery replay walks the oplog), but the
   engine retries transactions internally.  Every call is appended to a
   growable log and the transaction body is a replay loop over it: each
   attempt re-executes the logged prefix from call 0 and parks on
   [Runtime.await] at the end; the driver pokes the task whenever a call
   lands.  [results] keeps the latest attempt's result per call number —
   a replay overwrites earlier attempts' entries. *)

open Ooser_core

type call = { obj : Obj_id.t; meth : string; args : Value.t list }

type t = {
  mutable calls : call array;
  mutable n : int;
  mutable finished : bool;
  results : (int, (Value.t, string) result) Hashtbl.t;
}

let no_call = { obj = Obj_id.v "?"; meth = ""; args = [] }

let create () =
  { calls = Array.make 8 no_call; n = 0; finished = false;
    results = Hashtbl.create 16 }

let push t obj meth args =
  if not t.finished then begin
    if t.n = Array.length t.calls then begin
      let bigger = Array.make (2 * t.n) no_call in
      Array.blit t.calls 0 bigger 0 t.n;
      t.calls <- bigger
    end;
    t.calls.(t.n) <- { obj; meth; args };
    t.n <- t.n + 1
  end

let finish t = t.finished <- true
let finished t = t.finished
let length t = t.n
let result t i = Hashtbl.find_opt t.results i
let n_results t = Hashtbl.length t.results

let errors t =
  Hashtbl.fold
    (fun _ r acc -> match r with Error _ -> acc + 1 | Ok _ -> acc)
    t.results 0

(* Each attempt starts from call 0 with a fresh cursor — the closure is
   re-entered by the engine on retry, so all attempt-local state lives
   inside. *)
let body t (ctx : Runtime.ctx) : Value.t =
  let rec loop i last =
    if i < t.n then begin
      let { obj; meth; args } = t.calls.(i) in
      let r = Runtime.try_call ctx obj meth args in
      Hashtbl.replace t.results i r;
      loop (i + 1) (match r with Ok v -> v | Error _ -> last)
    end
    else if t.finished then last
    else begin
      Runtime.await ctx;
      loop i last
    end
  in
  loop 0 Value.unit
