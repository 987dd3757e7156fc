(** Diagnostics emitted by the static analyzer.

    Every finding carries a stable code (asserted by tests and stable
    across releases so CI configurations can match on it), a severity, a
    location in the specification/program space (object, method,
    transaction — there are no source positions: the analyzed artifacts
    are registries and call summaries), and a one-line fix hint.

    Codes:
    - [SPEC001] (error): asymmetric commutativity answer — Def. 9 demands
      a symmetric relation.
    - [SPEC002] (warning): a read-like method conflicts with itself.
    - [SPEC003] (warning): a method used by a workload is absent from the
      spec's declared vocabulary and falls into its conservative default.
    - [SPEC004] (warning): a registry lookup resolves to the default spec.
    - [CALL001] (info): Def. 5 extension site — a transaction and one of
      its (indirect) callees touch the same object; the system must
      introduce a virtual object.
    - [DL001] (warning): a cycle in the static object-acquisition order —
      deadlock potential under the locking protocols.
    - [HOT001] (warning): a conflict that climbs through one or more
      non-commuting caller levels all the way into a top-level
      transaction dependency — dependency inheritance (Def. 11) never
      stops, so every such pair of transactions serializes on the
      object: a contention hotspot.
    - [COMP001] (warning): a method invoked as a nested subtransaction
      (depth >= 2) without a registered compensation — under open
      nesting its lock is released when the caller completes, so a
      later abort of the top cannot soundly undo it. *)

type severity = Error | Warning | Info

type location = {
  obj : string option;  (** object name, when the finding is object-scoped *)
  meth : string option;
  txn : string option;  (** transaction (summary) name *)
}

type t = {
  code : string;
  severity : severity;
  loc : location;
  message : string;
  hint : string;  (** one-line fix suggestion *)
}

val v :
  code:string ->
  severity:severity ->
  ?obj:string ->
  ?meth:string ->
  ?txn:string ->
  hint:string ->
  string ->
  t

val severity_label : severity -> string
val compare : t -> t -> int
(** Errors first, then warnings, then infos; by code and location within
    a severity — a deterministic report order. *)

val errors : t list -> t list
val warnings : t list -> t list

val exit_code : ?strict:bool -> t list -> int
(** The single exit-code mapping shared by [oosdb lint] and
    [oosdb analyze]: 1 when any error is present, 0 otherwise; [strict]
    (default [false]) promotes warnings to the failing side.  Infos
    never affect the exit code. *)

val to_json : t -> Ooser_sim.Json.t
(** The JSON object
    [{"code": ..., "severity": ..., "obj": ..., "meth": ..., "txn": ...,
    "message": ..., "hint": ...}] with absent location fields omitted —
    the machine-readable form shared by [oosdb lint --format json] and
    [oosdb analyze --format json]. *)

val pp : Format.formatter -> t -> unit
(** [error SPEC001 Obj.meth: message (hint: ...)] on one line. *)

val pp_summary : Format.formatter -> t list -> unit
(** Counts by severity, e.g. [2 errors, 1 warning, 3 infos]. *)
