(* Commutativity of actions (Def. 9).

   Every object has a commutativity specification deciding, for any pair of
   actions on it, whether they commute or conflict.  Two actions of the
   same process never conflict (Def. 9). *)

open Ids

(* How a spec was constructed — kept alongside the opaque predicate so
   the spec-inference analyzer can diff a hand-written matrix against a
   derived one cell by cell instead of probing blindly. *)
type structure =
  | Opaque
  | Total of bool  (* all_commute / all_conflict *)
  | Conflict_pairs of (string * string) list
  | Commute_pairs of (string * string) list
  | Read_write of { reads : string list; writes : string list }
  | Keyed of structure

type spec = {
  name : string;
  commutes : Action.t -> Action.t -> bool;
  vocab : string list option;
      (* declared method vocabulary, when the constructor knows it;
         queried by the static analyzer (SPEC* diagnostics) *)
  structure : structure;
  stable : bool;
      (* the decision depends only on the two (method, args, pin)
         triples — never on live object state or call timing — so it
         may be memoized.  Matrix, rw and all-* specs are stable by
         construction; opaque predicates must opt in. *)
  pinned : bool;
      (* the decision reads the actions' execution-time pins, so a probe
         that never executed (a static analyzer's) only gets the
         conservative answer *)
}

let name s = s.name
let make ?vocab ?(stable = false) ?(pinned = false) ~name commutes =
  { name; commutes; vocab; structure = Opaque; stable; pinned }
let test s a a' = s.commutes a a'
let vocabulary s = s.vocab
let stable s = s.stable
let pinned s = s.pinned
let structure s = s.structure

let all_commute =
  {
    name = "all-commute";
    commutes = (fun _ _ -> true);
    vocab = None;
    structure = Total true;
    stable = true;
    pinned = false;
  }

let all_conflict =
  {
    name = "all-conflict";
    commutes = (fun _ _ -> false);
    vocab = None;
    structure = Total false;
    stable = true;
    pinned = false;
  }

let sym_mem pairs m m' =
  List.exists (fun (a, b) -> (a = m && b = m') || (a = m' && b = m)) pairs

let vocab_of_pairs pairs =
  List.sort_uniq String.compare
    (List.concat_map (fun (a, b) -> [ a; b ]) pairs)

(* Construction-time validation: a pair listed twice (in either order) is
   at best redundant and usually a typo for a different pair — reject it,
   naming the spec and the offending pair (inference-generated specs pass
   through here too, and a bare "duplicate pair" is undebuggable). *)
let check_pairs ~ctor ~name pairs =
  let rec go = function
    | [] -> ()
    | p :: rest ->
        let a, b = p in
        if sym_mem rest a b then
          invalid_arg
            (Printf.sprintf
               "Commutativity.%s: spec %S: duplicate pair (%s, %s)" ctor name
               a b);
        go rest
  in
  go pairs

let of_conflict_matrix ~name pairs =
  check_pairs ~ctor:"of_conflict_matrix" ~name pairs;
  {
    name;
    commutes =
      (fun a a' -> not (sym_mem pairs (Action.meth a) (Action.meth a')));
    vocab = Some (vocab_of_pairs pairs);
    structure = Conflict_pairs pairs;
    stable = true;
    pinned = false;
  }

let of_commute_matrix ~name pairs =
  check_pairs ~ctor:"of_commute_matrix" ~name pairs;
  {
    name;
    commutes = (fun a a' -> sym_mem pairs (Action.meth a) (Action.meth a'));
    vocab = Some (vocab_of_pairs pairs);
    structure = Commute_pairs pairs;
    stable = true;
    pinned = false;
  }

(* a method classified both ways is self-contradictory: the reads list
   would win silently, turning an intended write into a read *)
let rw_named ~name ~reads ~writes =
  List.iter
    (fun m ->
      if List.mem m writes then
        invalid_arg
          (Printf.sprintf
             "Commutativity.rw: spec %S: method %S is both a read and a write"
             name m))
    reads;
  let dup l =
    List.find_opt
      (fun m -> List.length (List.filter (String.equal m) l) > 1)
      l
  in
  (match (dup reads, dup writes) with
  | Some m, _ | _, Some m ->
      invalid_arg
        (Printf.sprintf "Commutativity.rw: spec %S: method %S listed twice"
           name m)
  | None, None -> ());
  let kind m =
    if List.mem m reads then `Read
    else if List.mem m writes then `Write
    else `Unknown
  in
  {
    name;
    commutes =
      (fun a a' ->
        match (kind (Action.meth a), kind (Action.meth a')) with
        | `Read, `Read -> true
        | `Read, `Write | `Write, `Read | `Write, `Write -> false
        | `Unknown, _ | _, `Unknown -> false);
    vocab = Some (List.sort_uniq String.compare (reads @ writes));
    structure = Read_write { reads; writes };
    stable = true;
    pinned = false;
  }

let rw ~reads ~writes = rw_named ~name:"read-write" ~reads ~writes

(* Refine [inner]: actions addressing different keys always commute;
   actions on the same key (or with no key) defer to [inner].  This is the
   leaf/node-level semantics of Example 1: inserts of different keys
   commute even when they collide on the same page. *)
let by_key ~key_of inner =
  {
    name = Printf.sprintf "keyed(%s)" inner.name;
    commutes =
      (fun a a' ->
        match (key_of a, key_of a') with
        | Some k, Some k' when not (Value.equal k k') -> true
        | _ -> inner.commutes a a');
    vocab = inner.vocab;
    structure = Keyed inner.structure;
    (* [key_of] may only look at the action's method and arguments, so the
       refinement preserves the inner spec's stability *)
    stable = inner.stable;
    pinned = inner.pinned;
  }

let predicate = make

let first_arg a = match Action.args a with [] -> None | v :: _ -> Some v

(* Registries map objects to their specification.  Virtual objects
   (Def. 5) behave exactly like their originals.  [known] tells the static
   analyzer whether a lookup resolves to a registered spec or falls back
   to the registry's default. *)
type registry = { spec_for : Obj_id.t -> spec; known : Obj_id.t -> bool }

let registry ?(known = fun _ -> true) spec_for =
  {
    spec_for = (fun o -> spec_for (Obj_id.original o));
    known = (fun o -> known (Obj_id.original o));
  }

let fixed ?(default = all_conflict) table =
  registry
    ~known:(fun o -> List.mem_assoc (Obj_id.name o) table)
    (fun o ->
      match List.assoc_opt (Obj_id.name o) table with
      | Some s -> s
      | None -> default)

let uniform spec = registry (fun _ -> spec)

let spec_for r o = r.spec_for o
let known r o = r.known o

let commutes r a a' =
  (* actions on different objects never interact, hence commute *)
  (not (Obj_id.equal (Action.obj a) (Action.obj a')))
  || Process_id.equal (Action.process a) (Action.process a')
  || (r.spec_for (Action.obj a)).commutes a a'

let conflicts r a a' =
  (not (Action_id.equal (Action.id a) (Action.id a'))) && not (commutes r a a')

(* Memoized commutativity.

   A stable spec's answer is a pure function of the two (method, args,
   pin) triples and the (de-virtualised) object, so the raw spec query
   can be cached under that key — turning the repeated probes of the
   incremental certifier's conflict scan into hash lookups.  The pin is
   part of the key: escrow and fifo decide on the state each action
   executed in, and a verdict memoised at one balance must not answer
   for another.  Unstable specs bypass the table entirely; the cache is
   then merely a pass-through, never a source of stale answers. *)

type class_key = {
  k_obj : string; (* original object name — ranks share the spec *)
  k_meth : string;
  k_args : Value.t list;
  k_pin : Value.t option;
  k_meth' : string;
  k_args' : Value.t list;
  k_pin' : Value.t option;
}

type cache = {
  reg : registry;
  table : (class_key, bool) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let cached ?(size = 1024) reg =
  { reg; table = Hashtbl.create size; hits = 0; misses = 0 }

let cache_stats c = (c.hits, c.misses)

let class_key a a' =
  {
    k_obj = Obj_id.name (Obj_id.original (Action.obj a));
    k_meth = Action.meth a;
    k_args = Action.args a;
    k_pin = Action.pin a;
    k_meth' = Action.meth a';
    k_args' = Action.args a';
    k_pin' = Action.pin a';
  }

(* Raw spec query (no same-process rule), memoized for stable specs. *)
let cached_test c a a' =
  let s = c.reg.spec_for (Action.obj a) in
  if not s.stable then s.commutes a a'
  else
    let key = class_key a a' in
    match Hashtbl.find_opt c.table key with
    | Some b ->
        c.hits <- c.hits + 1;
        b
    | None ->
        c.misses <- c.misses + 1;
        let b = s.commutes a a' in
        Hashtbl.add c.table key b;
        b

let cached_commutes c a a' =
  (not (Obj_id.equal (Action.obj a) (Action.obj a')))
  || Process_id.equal (Action.process a) (Action.process a')
  || cached_test c a a'

let cached_conflicts c a a' =
  (not (Action_id.equal (Action.id a) (Action.id a')))
  && not (cached_commutes c a a')
