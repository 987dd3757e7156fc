type seg = { lo : int; hi : int }
type t = { order : int array; segs : seg array }

let default_target ~txns ~workers =
  max 1 ((txns + (4 * workers) - 1) / (4 * workers))

let plan trace ~target =
  let target = max 1 target in
  let entries = Trace.entries trace in
  let n = Array.length entries in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let ea = entries.(a) and eb = entries.(b) in
      match Int.compare ea.Trace.min_stamp eb.Trace.min_stamp with
      | 0 -> (
          match Int.compare ea.Trace.max_stamp eb.Trace.max_stamp with
          | 0 -> Int.compare a b
          | c -> c)
      | c -> c)
    order;
  (* [reach] = the largest stamp positions 0..p reach; the cut after
     position p is quiescent iff every span so far ended before the
     next span starts (positions are sorted by span start, so the
     suffix minimum start IS the next position's start). *)
  let segs = ref [] in
  let lo = ref 0 in
  let reach = ref min_int in
  for p = 0 to n - 1 do
    reach := max !reach entries.(order.(p)).Trace.max_stamp;
    if
      p + 1 = n
      || (p + 1 - !lo >= target
         && !reach < entries.(order.(p + 1)).Trace.min_stamp)
    then begin
      segs := { lo = !lo; hi = p + 1 } :: !segs;
      lo := p + 1
    end
  done;
  { order; segs = Array.of_list (List.rev !segs) }
