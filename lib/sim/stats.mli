(** Streaming statistics and event counters for the experiment harness. *)

type t

val create : unit -> t
val add : t -> float -> unit
val add_int : t -> int -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
val variance : t -> float
val stddev : t -> float
val min_value : t -> float
val max_value : t -> float
val merge : t -> t -> t
val pp : Format.formatter -> t -> unit

(** Latency histogram with geometric buckets (eight per octave, fixed
    512-slot footprint): quantiles are bucket-midpoint estimates within
    ~9% relative error, clamped to the observed min/max.  Values are in
    seconds. *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val min_value : t -> float
  val max_value : t -> float

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0,1]; 0.0 on an empty histogram. *)

  val merge : t -> t -> t
  val pp : Format.formatter -> t -> unit

  val to_json : t -> Json.t
  (** [{"count", "mean", "p50", "p95", "p99", "max"}], in seconds: the
      one latency shape of STATS and loadgen. *)
end

(** Counters keyed by string, for event tallies. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit
  val get : t -> string -> int
  val to_list : t -> (string * int) list

  val json_of_list : (string * int) list -> Json.t
  (** A counter listing ({!to_list}, or one merged by hand) as a JSON
      object of integers, in list order. *)

  val pp : Format.formatter -> t -> unit
end
