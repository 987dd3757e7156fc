(** Minimal binary codec for node serialization. *)

module Writer : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit

  val string : t -> string -> unit
  (** u16 length prefix + bytes. *)

  val lstring : t -> string -> unit
  (** u32 length prefix + bytes, for payloads beyond the u16 range. *)

  val i64 : t -> int -> unit
  (** Full-range OCaml int, 8 bytes little-endian two's complement. *)

  val contents : t -> string
end

module Reader : sig
  type t

  val create : string -> t

  val u8 : t -> int
  (** @raise Failure on truncated input (all readers). *)

  val u16 : t -> int
  val u32 : t -> int
  val string : t -> string
  val lstring : t -> string
  val i64 : t -> int
  val at_end : t -> bool
end
