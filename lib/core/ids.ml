(* Identifiers for objects, actions, and processes.

   Action identifiers follow the paper's hierarchical numbering (Def. 2):
   the action [a_{i w}] of top-level transaction [T_i] is identified by the
   index [i] and the path [w] of child positions from the root.  Virtual
   duplicates introduced by the system extension (Def. 5) carry a virtual
   rank so they never collide with real actions. *)

module Obj_id = struct
  type t = { name : string; rank : int }

  let v name = { name; rank = 0 }
  let name t = t.name
  let rank t = t.rank
  let is_virtual t = t.rank > 0
  let virtualize t ~rank = { t with rank }
  let original t = if t.rank = 0 then t else { t with rank = 0 }

  let compare a b =
    match String.compare a.name b.name with
    | 0 -> Int.compare a.rank b.rank
    | c -> c

  let equal a b = compare a b = 0

  let to_string t =
    if t.rank = 0 then t.name else t.name ^ String.make t.rank '\''

  let pp ppf t = Fmt.string ppf (to_string t)
  let hash t = Hashtbl.hash t.name + t.rank

  module Ord = struct
    type nonrec t = t

    let compare = compare
  end

  module Set = Set.Make (Ord)
  module Map = Map.Make (Ord)

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
end

module Process_id = struct
  type t = { top : int; branch : int }

  let v ~top ~branch = { top; branch }
  let main top = { top; branch = 0 }
  let top t = t.top
  let branch t = t.branch

  let compare a b =
    match Int.compare a.top b.top with
    | 0 -> Int.compare a.branch b.branch
    | c -> c

  let equal a b = compare a b = 0

  let to_string t =
    if t.branch = 0 then Printf.sprintf "p%d" t.top
    else Printf.sprintf "p%d.%d" t.top t.branch

  let pp ppf t = Fmt.string ppf (to_string t)
end

module Action_id = struct
  type t = { top : int; path : int list; virt : int }

  let root top = { top; path = []; virt = 0 }
  let child t i = { t with path = t.path @ [ i ] }
  let v ~top ~path = { top; path; virt = 0 }
  let virtualize t ~rank = { t with virt = rank }
  let is_virtual t = t.virt > 0
  let devirtualize t = { t with virt = 0 }
  let top t = t.top
  let path t = t.path
  let depth t = List.length t.path
  let is_root t = t.path = []

  let parent t =
    let rec drop_last = function
      | [] | [ _ ] -> []
      | i :: rest -> i :: drop_last rest
    in
    match t.path with
    | [] -> None
    | path -> Some { t with path = drop_last path; virt = 0 }

  (* [is_parent p c]: [p] is [Some]-equal to [parent c], without
     building the parent *)
  let is_parent p c =
    let rec prefix ps cs =
      match (ps, cs) with
      | [], [ _ ] -> true
      | p :: ps', x :: cs' -> p = x && prefix ps' cs'
      | _ -> false
    in
    p.top = c.top && p.virt = 0 && prefix p.path c.path

  (* [is_proper_ancestor a b] holds when [a]'s path is a strict prefix of
     [b]'s path within the same top-level transaction. *)
  let is_proper_ancestor a b =
    let rec prefix xs ys =
      match (xs, ys) with
      | [], [] -> false
      | [], _ :: _ -> true
      | _ :: _, [] -> false
      | x :: xs', y :: ys' -> x = y && prefix xs' ys'
    in
    a.top = b.top && prefix a.path b.path

  let compare a b =
    match Int.compare a.top b.top with
    | 0 -> (
        match List.compare Int.compare a.path b.path with
        | 0 -> Int.compare a.virt b.virt
        | c -> c)
    | c -> c

  let equal a b =
    a.top = b.top && a.virt = b.virt && List.equal Int.equal a.path b.path

  (* mixes every field without allocating or calling the polymorphic
     hash; [equal] ids hash alike *)
  let hash t =
    List.fold_left
      (fun h i -> (h * 31) + i)
      ((t.top * 7) + t.virt)
      t.path
    land max_int

  let to_string t =
    let base =
      match t.path with
      | [] -> Printf.sprintf "T%d" t.top
      | path ->
          Printf.sprintf "a%d.%s" t.top
            (String.concat "." (List.map string_of_int path))
    in
    if t.virt = 0 then base else base ^ String.make t.virt '\''

  let pp ppf t = Fmt.string ppf (to_string t)

  module Ord = struct
    type nonrec t = t

    let compare = compare
  end

  module Set = Set.Make (Ord)
  module Map = Map.Make (Ord)

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
end
