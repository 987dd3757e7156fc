(* Commutativity-spec inference (DESIGN §16).

   For each object group of a lint target with an executable semantics
   model, evaluate every method x method x argument-class cell against
   the ground-truth oracle (Semantics.commute_at: forward commutativity
   plus abort safety), then diff the result against the registered
   hand-written spec.  The asymmetric design goal: a COMMUTING verdict
   requires agreement at every enumerated state AND a randomized-state
   pass, so inference is never falsely commutative; a CONFLICT verdict
   carries the first refuting state of the small-to-large enumeration —
   a minimal replayable witness. *)

open Ooser_core
module Json = Ooser_sim.Json

type arg_rel = Same_args | Same_key | Distinct | Mixed | Any

type evidence =
  | Structural of string
  | Tested of { states : int; arg_pairs : int }

type witness = {
  w_state : Value.t;
  w_args : Value.t list;
  w_args' : Value.t list;
  w_reason : string;
}

type verdict = Commutes of evidence | Conflicts of witness | Undecided of string

type cell = { meth : string; meth' : string; rel : arg_rel; verdict : verdict }

type group = {
  spec_name : string;
  members : string list;
  audited : bool;
  cells : cell list;
}

type t = {
  target_name : string;
  groups : group list;
  diagnostics : Diagnostic.t list;
  decided : int;
  total : int;
  unsound_cells : (string * cell) list;
  conservative_cells : (string * cell) list;
}

let rel_label = function
  | Same_args -> "same-args"
  | Same_key -> "same-key"
  | Distinct -> "distinct-first-arg"
  | Mixed -> "mixed"
  | Any -> "any"

let rel_of args args' =
  match (args, args') with
  | [], [] -> Same_args
  | [], _ | _, [] -> Mixed
  | a :: ta, b :: tb ->
      if not (Value.equal a b) then Distinct
      else if
        List.length ta = List.length tb && List.for_all2 Value.equal ta tb
      then Same_args
      else Same_key

let pp_args ppf args =
  Format.fprintf ppf "(%s)"
    (String.concat ", " (List.map Value.to_string args))

let args_str args = Format.asprintf "%a" pp_args args

(* Synthesized probe actions of two different processes; the Def. 9
   same-process rule is bypassed via Commutativity.test, like the spec
   linter's probes.  A probe at a model state carries the pin the engine
   would record there. *)
let probe_act ?pin ~obj ~top (meth, args) =
  Action.v
    ~id:(Ids.Action_id.v ~top ~path:[ 1 ])
    ~obj:(Obj_id.v obj) ~meth ~args ?pin
    ~process:(Ids.Process_id.main top)
    ()

(* ---------- grouping ---------- *)

(* Objects sharing a registered spec (by name) are audited once; the
   banking workload's ten accounts all carry "escrow-counter". *)
let group_infos (objects : Spec_lint.object_info list) =
  List.fold_left
    (fun acc (info : Spec_lint.object_info) ->
      let n = Commutativity.name info.spec in
      let rec add = function
        | [] -> [ (n, [ info ]) ]
        | (n', infos) :: rest when String.equal n n' ->
            (n', infos @ [ info ]) :: rest
        | g :: rest -> g :: add rest
      in
      add acc)
    [] objects

(* How many static summary pairs invoke (member, meth) and (member,
   meth') — the concurrency a conservative hand cell gives up. *)
let lost_concurrency effects members meth meth' =
  let touches (e : Effects.t) m =
    List.exists
      (fun (a : Effects.atom) ->
        String.equal a.meth m && List.mem (Obj_id.to_string a.obj) members)
      e.atoms
  in
  let arr = Array.of_list effects in
  let n = Array.length arr in
  let c = ref 0 in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      if
        (touches arr.(i) meth && touches arr.(j) meth')
        || (touches arr.(i) meth' && touches arr.(j) meth)
      then incr c
    done
  done;
  !c

(* ---------- per-group audit ---------- *)

type group_result = {
  r_group : group;
  r_diags : Diagnostic.t list;
  r_unsound : (string * cell) list;
  r_conservative : (string * cell) list;
}

let unordered_pairs methods =
  let rec go = function
    | [] -> []
    | m :: rest -> List.map (fun m' -> (m, m')) (m :: rest) @ go rest
  in
  go methods

let unaudited_group spec_name members vocab =
  let cells =
    List.map
      (fun (m, m') ->
        {
          meth = m;
          meth' = m';
          rel = Any;
          verdict = Undecided "no executable model for this spec";
        })
      (unordered_pairs vocab)
  in
  let diag =
    Diagnostic.v ~code:"INFER003" ~severity:Diagnostic.Info
      ~obj:(String.concat "," members)
      ~hint:
        "add an executable model to lib/analysis/semantics.ml to bring \
         this spec under inference"
      (Printf.sprintf
         "spec %S has no executable model: %d method-pair cell(s) stay \
          undecided"
         spec_name (List.length cells))
  in
  {
    r_group = { spec_name; members; audited = false; cells };
    r_diags = [ diag ];
    r_unsound = [];
    r_conservative = [];
  }

let is_read = function
  | Semantics.Reads_all | Semantics.Reads_key -> true
  | Semantics.Writes_all | Semantics.Writes_key -> false

let is_keyed = function
  | Semantics.Reads_key | Semantics.Writes_key -> true
  | Semantics.Reads_all | Semantics.Writes_all -> false

let audit_group ~rand ~random_states ~effects (spec_name, infos) =
  let rep : Spec_lint.object_info = List.hd infos in
  let members = List.map (fun (i : Spec_lint.object_info) -> i.obj) infos in
  let vocab =
    List.sort_uniq String.compare (List.concat_map Spec_lint.probe_vocab infos)
  in
  match Semantics.for_spec rep.spec with
  | None -> unaudited_group spec_name members vocab
  | Some model ->
      let reg_spec = rep.spec in
      let obj0 = List.hd members in
      let random =
        List.init random_states (fun _ ->
            QCheck.Gen.generate1 ~rand model.Semantics.gen_state)
      in
      let states = model.Semantics.states @ random in
      (* a pinned spec decides on the state each action executed in, so
         it is audited state by state, like a state-reading one *)
      let stable =
        Commutativity.stable reg_spec && not (Commutativity.pinned reg_spec)
      in
      let n_states = List.length states in
      let diags = ref [] in
      let unsound = ref [] in
      let conservative = ref [] in
      let cells = ref [] in
      let undecided_methods =
        List.filter (fun m -> not (List.mem m model.Semantics.vocab)) vocab
      in
      let emit_unsound cell w =
        unsound := (spec_name, cell) :: !unsound;
        diags :=
          Diagnostic.v ~code:"INFER001" ~severity:Diagnostic.Error ~obj:obj0
            ~meth:cell.meth
            ~hint:
              (Printf.sprintf
                 "the engine would certify a non-serializable interleaving; \
                  replay with Infer.witness_history and fix the %s/%s cell"
                 cell.meth cell.meth')
            (Printf.sprintf
               "spec %S claims %s%s and %s%s commute but execution refutes \
                it at state %s: %s"
               spec_name cell.meth (args_str w.w_args) cell.meth'
               (args_str w.w_args') (Value.to_string w.w_state) w.w_reason)
          :: !diags
      in
      let emit_conservative cell =
        conservative := (spec_name, cell) :: !conservative;
        let lost = lost_concurrency effects members cell.meth cell.meth' in
        diags :=
          Diagnostic.v ~code:"INFER002" ~severity:Diagnostic.Warning ~obj:obj0
            ~meth:cell.meth
            ~hint:
              "sound but conservative: the cell may be relaxed to commute \
               after reviewing compensation behaviour"
            (Printf.sprintf
               "spec %S conflicts %s/%s (%s arguments) yet every probed \
                execution commutes (%d states); %d workload summary pair(s) \
                lose concurrency"
               spec_name cell.meth cell.meth' (rel_label cell.rel) n_states
               lost)
          :: !diags
      in
      (* one cell: a method pair restricted to one argument-class
         relation, aggregated over every probed state *)
      let eval_cell meth meth' rel pairs =
        let cell_witness = ref None in
        let family_unsound = ref None in
        let family_conservative = ref false in
        let per_pair =
          List.map
            (fun (args, args') ->
              let hand_reg =
                Commutativity.test reg_spec
                  (probe_act ~obj:obj0 ~top:1 (meth, args))
                  (probe_act ~obj:obj0 ~top:2 (meth', args'))
              in
              (args, args', hand_reg, ref None (* first refutation *), ref false
               (* commuted at some probed state *)))
            pairs
        in
        List.iter
          (fun s ->
            let family =
              if stable then None else Some (model.Semantics.instantiate s)
            in
            List.iter
              (fun (args, args', _hand_reg, first_fail, ok_any) ->
                let ok = Semantics.commute_at model s (meth, args) (meth', args') in
                if ok then ok_any := true;
                if not ok then begin
                  let w () =
                    let reason =
                      if Semantics.forward_at model s (meth, args) (meth', args')
                      then
                        "abort-unsafe: undoing one call after the other ran \
                         does not restore the survivor-alone state"
                      else
                        "the two execution orders are distinguishable \
                         (results or final states differ)"
                    in
                    { w_state = s; w_args = args; w_args' = args'; w_reason = reason }
                  in
                  if !first_fail = None then first_fail := Some (w ());
                  if !cell_witness = None then cell_witness := Some (w ())
                end;
                match family with
                | None -> ()
                | Some fam ->
                    let pin = fam.Semantics.pin in
                    let says =
                      Commutativity.test fam.Semantics.hand
                        (probe_act ?pin ~obj:obj0 ~top:1 (meth, args))
                        (probe_act ?pin ~obj:obj0 ~top:2 (meth', args'))
                    in
                    if says && not ok && !family_unsound = None then
                      family_unsound :=
                        Some
                          {
                            w_state = s;
                            w_args = args;
                            w_args' = args';
                            w_reason =
                              "the state-bound spec claims commute at this \
                               state but execution refutes it";
                          };
                    if (not says) && ok then family_conservative := true)
              per_pair)
          states;
        let verdict =
          match !cell_witness with
          | Some w -> Conflicts w
          | None ->
              let evidence =
                match
                  (Semantics.footprint model meth, Semantics.footprint model meth')
                with
                | Some f, Some f' when is_read f && is_read f' ->
                    Structural "read-only footprints"
                | Some f, Some f' when rel = Distinct && is_keyed f && is_keyed f'
                  ->
                    Structural "key-disjoint footprints"
                | _ ->
                    Tested { states = n_states; arg_pairs = List.length pairs }
              in
              Commutes evidence
        in
        let cell = { meth; meth'; rel; verdict } in
        (* diff against the registered spec — at most one INFER001 and
           one INFER002 per cell *)
        if stable then begin
          (match
             List.find_opt
               (fun (_, _, hand_reg, first_fail, _) ->
                 hand_reg && !first_fail <> None)
               per_pair
           with
          | Some (_, _, _, { contents = Some w }, _) -> emit_unsound cell w
          | _ -> ());
          match verdict with
          | Commutes _ when List.exists (fun (_, _, h, _, _) -> not h) per_pair
            ->
              emit_conservative cell
          | _ -> ()
        end
        else begin
          (match !family_unsound with
          | Some w -> emit_unsound cell w
          | None ->
              (* a registered (possibly planted) spec claiming commute on
                 a pair the oracle refutes at EVERY probed state cannot
                 be a correct state-dependent refinement: no probed state
                 justifies the claim *)
              (match
                 List.find_opt
                   (fun (_, _, hand_reg, first_fail, ok_any) ->
                     hand_reg && !first_fail <> None && not !ok_any)
                   per_pair
               with
              | Some (_, _, _, { contents = Some w }, _) -> emit_unsound cell w
              | _ -> ()));
          match verdict with
          | Commutes _
            when !family_conservative
                 || List.exists (fun (_, _, h, _, _) -> not h) per_pair ->
              emit_conservative cell
          | _ -> ()
        end;
        cell
      in
      let pairs = unordered_pairs (List.sort_uniq String.compare vocab) in
      List.iter
        (fun (m, m') ->
          if
            List.mem m model.Semantics.vocab
            && List.mem m' model.Semantics.vocab
          then begin
            let vs = Semantics.vectors model m in
            let vs' = Semantics.vectors model m' in
            let buckets = ref [] in
            List.iter
              (fun a ->
                List.iter
                  (fun a' ->
                    let rel = rel_of a a' in
                    let rec add = function
                      | [] -> [ (rel, [ (a, a') ]) ]
                      | (r, ps) :: rest when r = rel ->
                          (r, ps @ [ (a, a') ]) :: rest
                      | b :: rest -> b :: add rest
                    in
                    buckets := add !buckets)
                  vs')
              vs;
            cells :=
              !cells @ List.map (fun (rel, ps) -> eval_cell m m' rel ps) !buckets
          end
          else
            cells :=
              !cells
              @ [
                  {
                    meth = m;
                    meth' = m';
                    rel = Any;
                    verdict =
                      Undecided "method outside the executable model vocabulary";
                  };
                ])
        pairs;
      if undecided_methods <> [] then
        diags :=
          Diagnostic.v ~code:"INFER003" ~severity:Diagnostic.Info ~obj:obj0
            ~hint:
              "compensation helpers are exercised through undo closures; \
               extend the model vocabulary to decide these cells directly"
            (Printf.sprintf
               "spec %S: method(s) %s outside the %s model vocabulary — \
                their cells stay undecided"
               spec_name
               (String.concat ", " undecided_methods)
               model.Semantics.model_name)
          :: !diags;
      {
        r_group = { spec_name; members; audited = true; cells = !cells };
        r_diags = !diags;
        r_unsound = !unsound;
        r_conservative = !conservative;
      }

(* ---------- driver ---------- *)

let run ?(seed = 0) ?(random_states = 100) (target : Lint.target) =
  let rand = Random.State.make [| 0x5eed; seed |] in
  let effects = List.map Effects.of_summary target.summaries in
  let results =
    List.map
      (audit_group ~rand ~random_states ~effects)
      (group_infos target.objects)
  in
  let groups = List.map (fun r -> r.r_group) results in
  let diagnostics =
    List.stable_sort Diagnostic.compare
      (List.concat_map (fun r -> r.r_diags) results)
  in
  let all_cells = List.concat_map (fun g -> g.cells) groups in
  let decided =
    List.length
      (List.filter
         (fun c -> match c.verdict with Undecided _ -> false | _ -> true)
         all_cells)
  in
  {
    target_name = target.name;
    groups;
    diagnostics;
    decided;
    total = List.length all_cells;
    unsound_cells = List.concat_map (fun r -> r.r_unsound) results;
    conservative_cells = List.concat_map (fun r -> r.r_conservative) results;
  }

let unsound t = t.unsound_cells
let conservative t = t.conservative_cells

let witness_history ~obj ~meth ~args ~meth' ~args' =
  let o = Obj_id.v obj in
  let t1 =
    Call_tree.Build.(top ~n:1 [ call ~args o meth []; call ~args o meth [] ])
  in
  let t2 = Call_tree.Build.(top ~n:2 [ call ~args:args' o meth' [] ]) in
  let a11 = Ids.Action_id.v ~top:1 ~path:[ 1 ] in
  let a12 = Ids.Action_id.v ~top:1 ~path:[ 2 ] in
  let a21 = Ids.Action_id.v ~top:2 ~path:[ 1 ] in
  let commut =
    Commutativity.fixed
      [
        ( obj,
          Commutativity.of_conflict_matrix ~name:"infer-witness"
            [ (meth, meth') ] );
      ]
  in
  (* T2's single call lands between T1's two: with a real conflict the
     dependency relation orders T1 before T2 (first call) and T2 before
     T1 (second call) — a cycle, so the history is not oo-serializable *)
  History.v ~tops:[ t1; t2 ] ~order:[ a11; a21; a12 ] ~commut

(* ---------- rendering ---------- *)

let pp_verdict ppf = function
  | Commutes (Structural r) -> Format.fprintf ppf "commutes (structural: %s)" r
  | Commutes (Tested { states; arg_pairs }) ->
      Format.fprintf ppf "commutes (tested: %d states x %d arg pairs)" states
        arg_pairs
  | Conflicts w ->
      Format.fprintf ppf "conflicts (witness: state %s, args %s | %s — %s)"
        (Value.to_string w.w_state) (args_str w.w_args) (args_str w.w_args')
        w.w_reason
  | Undecided r -> Format.fprintf ppf "undecided (%s)" r

let pp ppf t =
  Format.fprintf ppf "== spec inference: %s ==@." t.target_name;
  Format.fprintf ppf "cells decided: %d/%d@." t.decided t.total;
  List.iter
    (fun g ->
      Format.fprintf ppf "@.spec %S — objects: %s%s@." g.spec_name
        (String.concat ", " g.members)
        (if g.audited then "" else " [no model]");
      List.iter
        (fun c ->
          Format.fprintf ppf "  %s / %s [%s]: %a@." c.meth c.meth'
            (rel_label c.rel) pp_verdict c.verdict)
        g.cells)
    t.groups;
  if t.diagnostics <> [] then begin
    Format.fprintf ppf "@.";
    List.iter (fun d -> Format.fprintf ppf "%a@." Diagnostic.pp d) t.diagnostics;
    Diagnostic.pp_summary ppf t.diagnostics
  end

let to_json t =
  let verdict =
    Json.(
      function
      | Commutes (Structural r) ->
          [ "verdict", String "commutes"; "evidence", String "structural";
            "reason", String r ]
      | Commutes (Tested { states; arg_pairs }) ->
          [ "verdict", String "commutes"; "evidence", String "tested";
            "states", Int states; "arg_pairs", Int arg_pairs ]
      | Conflicts w ->
          [ "verdict", String "conflicts";
            ( "witness",
              Obj
                [ "state", String (Value.to_string w.w_state);
                  "args", String (args_str w.w_args);
                  "args2", String (args_str w.w_args');
                  "reason", String w.w_reason ] ) ]
      | Undecided r -> [ "verdict", String "undecided"; "reason", String r ])
  in
  let cell c =
    Json.(
      Obj
        ([ "meth", String c.meth; "meth2", String c.meth';
           "rel", String (rel_label c.rel) ]
        @ verdict c.verdict))
  in
  let group g =
    Json.(
      Obj
        [ "spec", String g.spec_name; "audited", Bool g.audited;
          "members", strings g.members; "cells", List (List.map cell g.cells) ])
  in
  Json.(
    Obj
      [ "target", String t.target_name; "decided", Int t.decided;
        "total", Int t.total;
        "groups", List (List.map group t.groups);
        "diagnostics", List (List.map Diagnostic.to_json t.diagnostics) ])
