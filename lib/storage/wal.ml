(* Write-ahead log.

   §1 of the paper assumes transactions execute "reliably — as if there
   were no failures"; this module provides the substrate: slot-level
   before/after-image logging with a force operation modelling stable
   storage.  A simulated crash keeps exactly the records forced so far.
   The log lives in memory only; the durable engine's on-disk log is the
   logical [Ooser_recovery.Oplog]. *)

type lsn = int

type record =
  | Begin of int
  | Update of {
      txn : int;
      page : Disk.page_id;
      slot : int;
      before : string option;  (* None = slot was dead *)
      after : string option;  (* None = slot becomes dead *)
    }
  | Commit of int
  | Abort of int
  | Checkpoint of int list  (* transactions active at checkpoint time *)
  | Clr of {
      txn : int;
      page : Disk.page_id;
      slot : int;
      restore : string option;  (* the before-image being reinstalled *)
      undo_next : lsn;  (* lsn of the Update this record compensates *)
    }

(* Records live in a growable array (appends are the commit-path hot
   spot); [base] tracks the lsn of recs.(0) so truncation can drop a
   prefix without renumbering. *)
type t = {
  mutable recs : (lsn * record) array;
  mutable len : int;
  mutable next_lsn : lsn;
  mutable stable_lsn : lsn;  (* records with lsn < stable_lsn survive a crash *)
}

let create () =
  { recs = [||]; len = 0; next_lsn = 0; stable_lsn = 0 }

let ensure_capacity t =
  if t.len = Array.length t.recs then begin
    let cap = max 16 (2 * Array.length t.recs) in
    let recs = Array.make cap (0, Commit 0) in
    Array.blit t.recs 0 recs 0 t.len;
    t.recs <- recs
  end

let append t record =
  let lsn = t.next_lsn in
  ensure_capacity t;
  t.recs.(t.len) <- (lsn, record);
  t.len <- t.len + 1;
  t.next_lsn <- lsn + 1;
  lsn

let force t = t.stable_lsn <- t.next_lsn

let next_lsn t = t.next_lsn
let stable_lsn t = t.stable_lsn

let to_list t = Array.to_list (Array.sub t.recs 0 t.len)

let all t = to_list t

let stable t = List.filter (fun (lsn, _) -> lsn < t.stable_lsn) (to_list t)

(* Drop every record below [upto] (log truncation after a quiescent
   checkpoint).  O(n), but only runs at checkpoint time. *)
let truncate t ~upto =
  let kept =
    Array.of_list
      (List.filter (fun (lsn, _) -> lsn >= upto) (to_list t))
  in
  t.recs <- kept;
  t.len <- Array.length kept

(* The log as it looks after a crash: only forced records remain. *)
let crash t =
  let kept =
    Array.of_list
      (List.filter (fun (lsn, _) -> lsn < t.stable_lsn) (to_list t))
  in
  {
    recs = kept;
    len = Array.length kept;
    next_lsn = t.stable_lsn;
    stable_lsn = t.stable_lsn;
  }
