(* Minimal binary codec for node serialization. *)

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 256

  let u8 b v =
    if v < 0 || v > 0xFF then invalid_arg "Codec.u8";
    Buffer.add_char b (Char.chr v)

  let u16 b v =
    if v < 0 || v > 0xFFFF then invalid_arg "Codec.u16";
    Buffer.add_char b (Char.chr (v land 0xFF));
    Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF))

  let u32 b v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.u32";
    u16 b (v land 0xFFFF);
    u16 b ((v lsr 16) land 0xFFFF)

  let string b s =
    u16 b (String.length s);
    Buffer.add_string b s

  (* u32-length-prefixed string, for payloads that can exceed the u16
     range of [string] *)
  let lstring b s =
    u32 b (String.length s);
    Buffer.add_string b s

  (* full-range OCaml int, little-endian two's complement over 8 bytes *)
  let i64 b v =
    let x = Int64.of_int v in
    for i = 0 to 7 do
      Buffer.add_char b
        (Char.chr
           (Int64.to_int (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xFFL)))
    done

  let contents b = Buffer.contents b
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let create data = { data; pos = 0 }

  let ensure r n =
    if r.pos + n > String.length r.data then failwith "Codec: truncated input"

  let u8 r =
    ensure r 1;
    let v = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    let lo = u8 r in
    let hi = u8 r in
    lo lor (hi lsl 8)

  let u32 r =
    let lo = u16 r in
    let hi = u16 r in
    lo lor (hi lsl 16)

  let string r =
    let len = u16 r in
    ensure r len;
    let s = String.sub r.data r.pos len in
    r.pos <- r.pos + len;
    s

  let lstring r =
    let len = u32 r in
    ensure r len;
    let s = String.sub r.data r.pos len in
    r.pos <- r.pos + len;
    s

  let i64 r =
    ensure r 8;
    let x = ref 0L in
    for i = 7 downto 0 do
      x :=
        Int64.logor
          (Int64.shift_left !x 8)
          (Int64.of_int (Char.code r.data.[r.pos + i]))
    done;
    r.pos <- r.pos + 8;
    Int64.to_int !x

  let at_end r = r.pos = String.length r.data
end

(* Framing is not done here.  The operation log, the 2PC decision log,
   certify traces and the server wire frame their payloads through
   [Ooser_recovery.Record_log] (a u32-LE length, then the payload), and
   snapshots are written through its atomic [replace].  That module also
   owns the one [Value.t] codec, the loading rules — a torn or
   zero-filled tail ends a log, an undecodable record followed by a
   decodable one raises — and fsync, whose errors it lets propagate. *)
