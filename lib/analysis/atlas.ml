(* The whole-workload static conflict atlas.

   For every pair of transaction types in a workload (summaries deduped
   by call-tree shape, self-pairs included), the atlas holds one of:

   - [Safe]: a PROOF that every interleaving of the two transactions is
     oo-serializable.  Either the pair has no conflicting leaf pair at
     all ([No_conflict]), or its channels share no deposit object
     ([Isolated_channels] — see the counting argument in [Inherit]), or
     every merge of the two primitive sequences was replayed through
     [Serializability.check] and accepted ([Exhausted n]).
   - [Unsafe w]: a minimal witness schedule — an interleaving with the
     fewest context switches found failing — replayable through
     [Serializability.check] by construction.
   - [Unknown]: a state-reading (unstable) spec makes the conflicts
     statically undecidable, or the interleaving count exceeds the
     enumeration budget.  Never claimed safe.

   The atlas also emits the HOT001 (inheritance never stops) and COMP001
   (missing compensation on an open-nested abort path) rules. *)

open Ooser_core
module Json = Ooser_sim.Json

type safe_reason =
  | No_conflict  (* no conflicting leaf pair: no cross edges at all *)
  | Isolated_channels  (* channels share no deposit object *)
  | Exhausted of int  (* all [n] interleavings replayed and accepted *)

type witness = {
  w_order : Action_id.t list;
  w_switches : int;  (* context switches — minimal among failures found *)
  w_objects : Obj_id.t list;  (* objects whose per-object relations fail *)
}

type verdict = Safe of safe_reason | Unsafe of witness | Unknown of string

type entry = {
  pair : string * string;
  verdict : verdict;
  inh : Inherit.t;
  interleavings : int;  (* total merge count, clamped to budget + 1 *)
}

type t = {
  target_name : string;
  summaries : Summary.t list;  (* deduped representatives *)
  entries : entry list;
  diagnostics : Diagnostic.t list;  (* HOT001 / COMP001 *)
}

(* ---------------------------------------------------------------- pairs *)

let dedup_summaries summaries =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun s ->
      let k = Effects.shape_key s in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    summaries

(* ---------------------------------------------------------- enumeration *)

(* C(n1+n2, n1), clamped to [cap + 1]. *)
let merge_count ~cap n1 n2 =
  let n1, n2 = if n1 < n2 then (n1, n2) else (n2, n1) in
  let rec go acc i =
    if i > n1 then acc
    else
      let acc = acc * (n2 + i) / i in
      if acc > cap then cap + 1 else go acc (i + 1)
  in
  go 1 1

(* Every merge of two sequences, preserving each sequence's order. *)
let rec merges xs ys () =
  match (xs, ys) with
  | [], l | l, [] -> Seq.Cons (l, Seq.empty)
  | x :: xt, y :: yt ->
      Seq.append
        (Seq.map (List.cons x) (fun () -> merges xt ys ()))
        (Seq.map (List.cons y) (fun () -> merges xs yt ()))
        ()

let switches order =
  match order with
  | [] -> 0
  | first :: rest ->
      let _, n =
        List.fold_left
          (fun (prev, n) id ->
            let t = Action_id.top id in
            (t, if t = prev then n else n + 1))
          (Action_id.top first, 0)
          rest
      in
      n

let replay (inh : Inherit.t) order =
  let t1, t2 = inh.Inherit.tops in
  Serializability.check
    (History.v ~tops:[ t1; t2 ] ~order ~commut:inh.Inherit.registry)

let failing_objects (v : Serializability.verdict) =
  List.filter_map
    (fun ov ->
      if
        Serializability.object_oo_serializable ov
        && ov.Serializability.combined_acyclic
      then None
      else Some ov.Serializability.obj)
    v.Serializability.objects

exception Minimal of witness

(* Exhaustive replay: prove Safe by exhaustion or find a minimal
   witness.  Two context switches is the least any non-serial
   interleaving has, so the scan stops early at a 2-switch failure. *)
let enumerate ~max_interleavings (inh : Inherit.t) =
  let t1, t2 = inh.Inherit.tops in
  let s1 = History.serial_primitives t1
  and s2 = History.serial_primitives t2 in
  let total =
    merge_count ~cap:max_interleavings (List.length s1) (List.length s2)
  in
  if total > max_interleavings then
    ( Unknown
        (Printf.sprintf "more than %d interleavings — enumeration budget \
                         exceeded" max_interleavings),
      total )
  else
    let best = ref None in
    (try
       Seq.iter
         (fun order ->
           let v = replay inh order in
           if not v.Serializability.oo_serializable then begin
             let w =
               {
                 w_order = order;
                 w_switches = switches order;
                 w_objects = failing_objects v;
               }
             in
             (match !best with
             | Some b when b.w_switches <= w.w_switches -> ()
             | _ -> best := Some w);
             if w.w_switches <= 2 then raise (Minimal w)
           end)
         (merges s1 s2)
     with Minimal _ -> ());
    match !best with
    | None -> (Safe (Exhausted total), total)
    | Some w -> (Unsafe w, total)

let entry_of ?(max_interleavings = 20_000) (inh : Inherit.t) =
  let pair = (inh.Inherit.left.Summary.name, inh.Inherit.right.Summary.name) in
  if inh.Inherit.unstable <> [] then
    {
      pair;
      verdict =
        Unknown
          (Fmt.str "state-dependent spec on %a — conflicts undecidable \
                    statically"
             (Fmt.list ~sep:(Fmt.any ", ") Obj_id.pp)
             inh.Inherit.unstable);
      inh;
      interleavings = 0;
    }
  else if inh.Inherit.channels = [] then
    { pair; verdict = Safe No_conflict; inh; interleavings = 0 }
  else if inh.Inherit.shared = [] then
    { pair; verdict = Safe Isolated_channels; inh; interleavings = 0 }
  else
    let verdict, total = enumerate ~max_interleavings inh in
    { pair; verdict; inh; interleavings = total }

(* ------------------------------------------------------------ lint rules *)

let hot_diags entries =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun e ->
      List.filter_map
        (fun (c : Inherit.channel) ->
          let deep = List.length c.Inherit.trail >= 2 in
          (* a state-dependent source conflicts only in some states: the
             pair's verdict is already [Unknown], not a hotspot *)
          let state_dependent =
            List.exists
              (Obj_id.equal (Obj_id.original c.Inherit.source))
              e.inh.Inherit.unstable
          in
          if state_dependent || not (Inherit.reaches_top c && deep) then None
          else
            let key =
              (e.pair, Obj_id.to_string c.Inherit.source, c.Inherit.meths)
            in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.add seen key ();
              Some
                (Diagnostic.v ~code:"HOT001" ~severity:Diagnostic.Warning
                   ~obj:(Obj_id.to_string c.Inherit.source)
                   ~meth:(fst c.Inherit.meths ^ "/" ^ snd c.Inherit.meths)
                   ~txn:(fst e.pair ^ "/" ^ snd e.pair)
                   ~hint:
                     "make an intermediate caller pair commute so Def. 11 \
                      stops the inheritance, or split the hot object"
                   (Fmt.str
                      "conflict is inherited through %d level%s (%a) into a \
                       top-level transaction dependency: every such pair of \
                       transactions serializes here"
                      (List.length c.Inherit.trail)
                      (if List.length c.Inherit.trail = 1 then "" else "s")
                      (Fmt.list ~sep:(Fmt.any " -> ") Obj_id.pp)
                      c.Inherit.trail))
            end)
        e.inh.Inherit.channels)
    entries

let comp_diags (objects : Spec_lint.object_info list) summaries =
  let seen = Hashtbl.create 16 in
  let diags = ref [] in
  let info_of name =
    List.find_opt (fun oi -> String.equal oi.Spec_lint.obj name) objects
  in
  List.iter
    (fun (s : Summary.t) ->
      let rec visit depth (c : Summary.call) =
        let oname = Obj_id.to_string (Obj_id.original c.Summary.obj) in
        (if depth >= 2 && not (Hashtbl.mem seen (oname, c.Summary.meth)) then
           match info_of oname with
           | Some { Spec_lint.compensated = Some comps; methods; _ }
             when List.mem c.Summary.meth methods
                  && not (List.mem c.Summary.meth comps) ->
               Hashtbl.add seen (oname, c.Summary.meth) ();
               diags :=
                 Diagnostic.v ~code:"COMP001" ~severity:Diagnostic.Warning
                   ~obj:oname ~meth:c.Summary.meth ~txn:s.Summary.name
                   ~hint:
                     (Fmt.str
                        "register a compensation (Inverse ...) for %s.%s, or \
                         flatten the call so its lock is scoped by the root"
                        oname c.Summary.meth)
                   "nested subtransaction has no registered compensation: \
                    under open nesting its lock is released when the caller \
                    completes, so a later abort of the top cannot soundly \
                    undo it"
                 :: !diags
           | _ -> ());
        List.iter (visit (depth + 1)) c.Summary.children
      in
      List.iter (visit 1) s.Summary.body)
    summaries;
  List.rev !diags

(* ------------------------------------------------------------ the build *)

let build ?max_interleavings ?(sys = Inherit.default_sys)
    (target : Lint.target) =
  let reps = dedup_summaries target.Lint.summaries in
  let entries = ref [] in
  let rec pairs = function
    | [] -> ()
    | l :: rest ->
        (* self-pair first: two instances of the same transaction type *)
        List.iter
          (fun r ->
            let inh = Inherit.analyse ~sys target.Lint.registry l r in
            entries := entry_of ?max_interleavings inh :: !entries)
          (l :: rest);
        pairs rest
  in
  pairs reps;
  let entries = List.rev !entries in
  let diagnostics =
    List.sort Diagnostic.compare
      (hot_diags entries @ comp_diags target.Lint.objects target.Lint.summaries)
  in
  {
    target_name = target.Lint.name;
    summaries = reps;
    entries;
    diagnostics;
  }

let witness_history (e : entry) (w : witness) =
  let t1, t2 = e.inh.Inherit.tops in
  History.v ~tops:[ t1; t2 ] ~order:w.w_order
    ~commut:e.inh.Inherit.registry

(* ------------------------------------------------------------- counting *)

let count p t = List.length (List.filter p t.entries)

let safe_entries t =
  List.filter (fun e -> match e.verdict with Safe _ -> true | _ -> false)
    t.entries

let unsafe_entries t =
  List.filter (fun e -> match e.verdict with Unsafe _ -> true | _ -> false)
    t.entries

let unknown_entries t =
  List.filter (fun e -> match e.verdict with Unknown _ -> true | _ -> false)
    t.entries

(* ------------------------------------------------------------ rendering *)

let verdict_label = function
  | Safe No_conflict -> "safe (no conflict)"
  | Safe Isolated_channels -> "safe (isolated channels)"
  | Safe (Exhausted n) -> Printf.sprintf "safe (all %d interleavings)" n
  | Unsafe w ->
      Printf.sprintf "UNSAFE (witness: %d switches)" w.w_switches
  | Unknown _ -> "unknown"

let pp_entry ppf e =
  Fmt.pf ppf "%s x %s: %s" (fst e.pair) (snd e.pair) (verdict_label e.verdict);
  match e.verdict with
  | Unsafe w ->
      Fmt.pf ppf " at %a@,    witness: %a"
        (Fmt.list ~sep:(Fmt.any ", ") Obj_id.pp)
        w.w_objects
        (Fmt.list ~sep:Fmt.sp Action_id.pp)
        w.w_order
  | Unknown reason -> Fmt.pf ppf " — %s" reason
  | Safe _ -> ()

let pp ppf t =
  Fmt.pf ppf "@[<v>atlas %s: %d transaction types, %d pairs@," t.target_name
    (List.length t.summaries)
    (List.length t.entries);
  List.iter (fun e -> Fmt.pf ppf "  %a@," pp_entry e) t.entries;
  List.iter (fun d -> Fmt.pf ppf "  %a@," Diagnostic.pp d) t.diagnostics;
  Fmt.pf ppf "  %d safe, %d unsafe, %d unknown@]"
    (count (fun e -> match e.verdict with Safe _ -> true | _ -> false) t)
    (count (fun e -> match e.verdict with Unsafe _ -> true | _ -> false) t)
    (count (fun e -> match e.verdict with Unknown _ -> true | _ -> false) t)

let verdict_json =
  Json.(
    function
    | Safe r ->
        let reason =
          match r with
          | No_conflict -> "no-conflict"
          | Isolated_channels -> "isolated-channels"
          | Exhausted n -> Printf.sprintf "exhausted-%d" n
        in
        Obj [ "kind", String "safe"; "reason", String reason ]
    | Unsafe w ->
        Obj
          [ "kind", String "unsafe"; "switches", Int w.w_switches;
            "objects", strings (List.map Obj_id.to_string w.w_objects);
            "witness", strings (List.map Action_id.to_string w.w_order) ]
    | Unknown reason ->
        Obj [ "kind", String "unknown"; "reason", String reason ])

let to_json t =
  let entry e =
    Json.(
      Obj
        [ "left", String (fst e.pair); "right", String (snd e.pair);
          "channels", Int (List.length e.inh.Inherit.channels);
          "shared", Int (List.length e.inh.Inherit.shared);
          "interleavings", Int e.interleavings;
          "verdict", verdict_json e.verdict ])
  in
  let count f = Json.Int (List.length (f t)) in
  Json.(
    Obj
      [ "target", String t.target_name;
        "transaction_types", Int (List.length t.summaries);
        "pairs", List (List.map entry t.entries);
        "diagnostics", List (List.map Diagnostic.to_json t.diagnostics);
        "safe", count safe_entries; "unsafe", count unsafe_entries;
        "unknown", count unknown_entries ])

(* DOT quoted strings take the same escapes as JSON ones for the quotes
   and backslashes a name can hold, so one escaper serves both. *)
let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "graph %s {\n  overlap=false;\n"
       (Json.quote ("atlas-" ^ t.target_name)));
  List.iter
    (fun (s : Summary.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s [shape=box];\n" (Json.quote s.Summary.name)))
    t.summaries;
  List.iter
    (fun e ->
      let l, r = e.pair in
      let attrs =
        match e.verdict with
        | Safe _ -> "color=darkgreen, style=dashed, label=\"safe\""
        | Unsafe w ->
            Printf.sprintf "color=red, style=bold, label=%s"
              (Json.quote
                 ("unsafe: "
                 ^ String.concat "," (List.map Obj_id.to_string w.w_objects)))
        | Unknown _ -> "color=gray, style=dotted, label=\"unknown\""
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s -- %s [%s];\n" (Json.quote l) (Json.quote r)
           attrs))
    t.entries;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
