(* A session's transaction, bridged onto the effects engine through its
   {!Call_log}: every CALL the client sends is appended, and the body
   replays the log on every engine-internal retry, so retries are
   invisible to the client — except that results delivered before
   COMMITTED are provisional (a replay may observe a different database
   state).  One response is owed per request; call results are released
   strictly in call order. *)

open Ooser_core
open Ooser_oodb

type txn = {
  top : int;
  began : float;  (* admission time; BEGIN-to-decision latency base *)
  log : Call_log.t;  (* CALLs so far; finished by COMMIT *)
  mutable calls_sent : int;  (* CALL frames received so far *)
  mutable calls_flushed : int;  (* results already sent to the client *)
  call_at : (int, float) Hashtbl.t;  (* call number -> arrival time *)
  mutable abort_requested : bool;  (* an ABORT frame awaits its reply *)
}

type phase =
  | Fresh  (* nothing received; HELLO must come first *)
  | Idle  (* greeted, between transactions *)
  | Begun_wait of { name : string; timeout_ms : int }
      (* BEGIN received, queued behind the admission limit *)
  | In_txn of txn
  | Dead_txn of string
      (* the transaction aborted while the client owed us nothing (a
         deadline firing between commands); the reason is delivered as
         the answer to the client's next request, keeping the protocol
         strictly one-response-per-request *)

type t = {
  sid : int;
  mutable client : string;  (* from HELLO *)
  mutable phase : phase;
}

let create ~sid = { sid; client = ""; phase = Fresh }

let new_txn ~top ~began =
  {
    top;
    began;
    log = Call_log.create ();
    calls_sent = 0;
    calls_flushed = 0;
    call_at = Hashtbl.create 16;
    abort_requested = false;
  }

let push_call tr ~now obj meth args =
  Hashtbl.replace tr.call_at tr.calls_sent now;
  tr.calls_sent <- tr.calls_sent + 1;
  Call_log.push tr.log obj meth args

let body tr = Call_log.body tr.log
