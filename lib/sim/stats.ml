(* Streaming statistics and simple histograms for the experiment
   harness. *)

type t = {
  mutable n : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  { n = 0; sum = 0.0; sumsq = 0.0; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let add_int t x = add t (float_of_int x)

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let variance t =
  if t.n < 2 then 0.0
  else
    let m = mean t in
    Float.max 0.0 ((t.sumsq /. float_of_int t.n) -. (m *. m))

let stddev t = sqrt (variance t)
let min_value t = if t.n = 0 then 0.0 else t.min
let max_value t = if t.n = 0 then 0.0 else t.max

let merge a b =
  {
    n = a.n + b.n;
    sum = a.sum +. b.sum;
    sumsq = a.sumsq +. b.sumsq;
    min = Float.min a.min b.min;
    max = Float.max a.max b.max;
  }

let pp ppf t =
  Fmt.pf ppf "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" t.n (mean t) (stddev t)
    (min_value t) (max_value t)

(* Latency histogram with geometric buckets: bucket [i] covers
   [base * g^i, base * g^(i+1)) seconds with g = 2^(1/8) — eight buckets
   per octave gives quantiles within ~9% relative error, plenty for
   p50/p95/p99 reporting, at a fixed 512-slot footprint (sub-microsecond
   to ~19 hours).  Values below [base] land in bucket 0; values above
   the range in the last bucket; exact min/max are kept alongside. *)
module Histogram = struct
  let n_buckets = 512
  let base = 1e-7  (* 100 ns *)
  let log_g = log 2.0 /. 8.0

  type t = {
    counts : int array;
    mutable n : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let create () =
    {
      counts = Array.make n_buckets 0;
      n = 0;
      sum = 0.0;
      minv = infinity;
      maxv = neg_infinity;
    }

  let bucket_of v =
    if v <= base then 0
    else
      let i = int_of_float (log (v /. base) /. log_g) in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

  (* geometric midpoint of the bucket, the value quantiles report *)
  let bucket_value i = base *. exp ((float_of_int i +. 0.5) *. log_g)

  let add t v =
    t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
  let min_value t = if t.n = 0 then 0.0 else t.minv
  let max_value t = if t.n = 0 then 0.0 else t.maxv

  let quantile t q =
    if t.n = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = int_of_float (ceil (q *. float_of_int t.n)) in
      let rank = if rank < 1 then 1 else rank in
      let acc = ref 0 and result = ref (bucket_value (n_buckets - 1)) in
      (try
         for i = 0 to n_buckets - 1 do
           acc := !acc + t.counts.(i);
           if !acc >= rank then begin
             result := bucket_value i;
             raise Exit
           end
         done
       with Exit -> ());
      (* clamp the midpoint estimate to the observed range *)
      Float.max t.minv (Float.min t.maxv !result)
    end

  let merge a b =
    let t = create () in
    Array.blit a.counts 0 t.counts 0 n_buckets;
    Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) b.counts;
    t.n <- a.n + b.n;
    t.sum <- a.sum +. b.sum;
    t.minv <- Float.min a.minv b.minv;
    t.maxv <- Float.max a.maxv b.maxv;
    t

  let pp ppf t =
    Fmt.pf ppf "n=%d mean=%.6f p50=%.6f p95=%.6f p99=%.6f max=%.6f" t.n
      (mean t) (quantile t 0.50) (quantile t 0.95) (quantile t 0.99)
      (max_value t)

  let to_json t =
    let q p = Json.Float (quantile t p) in
    Json.(
      Obj
        [ "count", Int t.n; "mean", Float (mean t); "p50", q 0.50;
          "p95", q 0.95; "p99", q 0.99; "max", Float (max_value t) ])
end

(* Counters keyed by string, for event tallies. *)
module Counter = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 16

  (* [find] rather than [find_opt]: the lock protocols count every
     request, and an option per count is garbage *)
  let incr ?(by = 1) t key =
    let cur = match Hashtbl.find t key with v -> v | exception Not_found -> 0 in
    Hashtbl.replace t key (cur + by)

  let get t key =
    match Hashtbl.find_opt t key with Some v -> v | None -> 0

  let to_list t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let json_of_list kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

  let pp ppf t =
    Fmt.pf ppf "%a"
      (Fmt.list ~sep:(Fmt.any ", ") (Fmt.pair ~sep:(Fmt.any "=") Fmt.string Fmt.int))
      (to_list t)
end
