(* Diagnostics emitted by the static analyzer: stable code + severity +
   location + one-line fix hint.  See the .mli for the code table. *)

module Json = Ooser_sim.Json

type severity = Error | Warning | Info

type location = {
  obj : string option;
  meth : string option;
  txn : string option;
}

type t = {
  code : string;
  severity : severity;
  loc : location;
  message : string;
  hint : string;
}

let v ~code ~severity ?obj ?meth ?txn ~hint message =
  { code; severity; loc = { obj; meth; txn }; message; hint }

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      Stdlib.compare
        (a.loc.obj, a.loc.meth, a.loc.txn, a.message)
        (b.loc.obj, b.loc.meth, b.loc.txn, b.message)

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds

(* The one exit-code mapping, shared by `oosdb lint` and `oosdb analyze`:
   errors exit 1, warnings exit 0 — unless [strict] promotes them. *)
let exit_code ?(strict = false) ds =
  if errors ds <> [] then 1
  else if strict && warnings ds <> [] then 1
  else 0

let to_json d =
  let field name v rest =
    match v with None -> rest | Some v -> (name, Json.String v) :: rest
  in
  Json.(
    Obj
      (("code", String d.code)
      :: ("severity", String (severity_label d.severity))
      :: field "obj" d.loc.obj
           (field "meth" d.loc.meth
              (field "txn" d.loc.txn
                 [ "message", String d.message; "hint", String d.hint ]))))

let pp_location ppf loc =
  let parts =
    List.filter_map Fun.id
      [
        Option.map (fun t -> "txn " ^ t) loc.txn;
        (match (loc.obj, loc.meth) with
        | Some o, Some m -> Some (o ^ "." ^ m)
        | Some o, None -> Some o
        | None, Some m -> Some m
        | None, None -> None);
      ]
  in
  if parts <> [] then Fmt.pf ppf " %s" (String.concat " " parts)

let pp ppf d =
  Fmt.pf ppf "%s %s%a: %s (hint: %s)"
    (severity_label d.severity)
    d.code pp_location d.loc d.message d.hint

let pp_summary ppf ds =
  let count sev = List.length (List.filter (fun d -> d.severity = sev) ds) in
  let plural n what = Fmt.str "%d %s%s" n what (if n = 1 then "" else "s") in
  Fmt.pf ppf "%s, %s, %s"
    (plural (count Error) "error")
    (plural (count Warning) "warning")
    (plural (count Info) "info")
