(* Certification scaling: incremental certify-per-commit cost vs history
   length, against the from-scratch checker.

     dune exec bench/scaling.exe                    # table to stdout,
                                                    # JSON to BENCH_incremental.json
     dune exec bench/scaling.exe -- -n 300 -o out.json

   The JSON payload carries the raw series plus the two headline
   booleans: incremental_sublinear and scratch_superlinear. *)

module Cert_bench = Ooser_workload.Cert_bench

let () =
  let n = ref 600 and out = ref "BENCH_incremental.json" in
  let rec parse = function
    | "-n" :: v :: rest ->
        n := int_of_string v;
        parse rest
    | "-o" :: v :: rest ->
        out := v;
        parse rest
    | [] -> ()
    | a :: _ ->
        Fmt.epr "scaling: unknown argument %s (expected -n INT, -o FILE)@." a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let samples =
    List.filter (fun s -> s <= !n) [ 50; 150; 300; 600; !n ]
    |> List.sort_uniq Int.compare
  in
  let r = Cert_bench.run ~n:!n ~samples () in
  Fmt.pr "%a@." Cert_bench.pp r;
  let oc = open_out !out in
  output_string oc Ooser_sim.Json.(indented (Obj (Cert_bench.json_fields r)));
  output_string oc "\n";
  close_out oc;
  Fmt.pr "wrote %s@." !out;
  if not r.Cert_bench.incremental_sublinear then begin
    Fmt.epr "scaling: incremental per-commit cost is NOT sub-linear@.";
    exit 1
  end
