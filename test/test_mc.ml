(* The model checker checking itself: DPOR must be a pure reduction
   (same verdicts, fewer schedules) on independent workloads, the
   planted unsound-spec mutant must be caught with a minimal witness
   that replays deterministically, and a sharded scenario must run to
   exhaustion with a clean vote-window audit. *)

module Mc = Ooser_mc.Mc
module Scenario = Ooser_mc.Scenario
module Explore = Ooser_mc.Explore

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let scenario name =
  match Scenario.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "no built-in scenario %S" name

let exhausted (e : Mc.exploration option) =
  match e with Some e -> e.Mc.stats.Explore.exhausted | None -> false

let schedules (e : Mc.exploration option) =
  match e with Some e -> e.Mc.stats.Explore.schedules | None -> 0

(* Disjoint transactions: every pair commutes, so sleep sets collapse
   the whole tree to a handful of schedules while naive enumeration
   pays the full factorial — and both must see the same verdicts. *)
let test_disjoint_reduction () =
  let r = Mc.run_scenario (scenario "disjoint") in
  check_bool "scenario ok" true r.Mc.r_ok;
  check_bool "naive exhausted" true (exhausted r.Mc.r_naive);
  check_bool "dpor exhausted" true (exhausted r.Mc.r_dpor);
  check_bool "verdict sets agree" true r.Mc.r_verdicts_agree;
  (match r.Mc.r_reduction with
  | Some f -> check_bool "strict reduction" true (f > 1.0)
  | None -> Alcotest.fail "no reduction factor measured");
  check_bool "dpor strictly fewer schedules" true
    (schedules r.Mc.r_dpor < schedules r.Mc.r_naive)

(* All-conflicting register: nothing commutes, DPOR must NOT prune —
   pruning here would be unsoundness, not reduction. *)
let test_shared_register_no_pruning () =
  let r = Mc.run_scenario (scenario "shared-register") in
  check_bool "scenario ok" true r.Mc.r_ok;
  check_int "dpor = naive when nothing commutes" (schedules r.Mc.r_naive)
    (schedules r.Mc.r_dpor)

(* The planted mutant (an all_commute spec on a non-commuting object):
   some interleaving must violate the serial-state oracle, and the
   minimised witness must reproduce the violation on replay — twice,
   identically, because a run is a pure function of its choices. *)
let test_mutant_witness_replays () =
  let sc = scenario "mutant" in
  check_bool "declared expect-failure" true sc.Scenario.expect_failure;
  let r = Mc.run_scenario sc in
  check_bool "mutant caught" true r.Mc.r_ok;
  check_bool "violations recorded" true (r.Mc.r_violations <> []);
  match r.Mc.r_witness with
  | None -> Alcotest.fail "no minimised witness"
  | Some w ->
      let _, v1 = Mc.replay sc w in
      let _, v2 = Mc.replay sc w in
      check_bool "witness replays the violation" true (v1 <> []);
      check_bool "replay is deterministic" true (v1 = v2);
      (* minimality: the witness codec round-trips, so the CLI --replay
         flag can carry it *)
      let s = Explore.trace_to_string w in
      check_bool "trace codec round-trips" true
        (Explore.trace_of_string s = Some w)

(* Escrow under commit-time certification: the pinned spec keeps every
   commit on the incremental certifier, and every interleaving ends in a
   state some serial order of the committed set produces.  The planted
   twin (an always-commute escrow spec) must be caught with a minimised
   witness that replays. *)
let test_escrow_certify () =
  let r = Mc.run_scenario (scenario "escrow-certify") in
  check_bool "scenario ok" true r.Mc.r_ok;
  check_bool "naive exhausted" true (exhausted r.Mc.r_naive);
  check_bool "dpor exhausted" true (exhausted r.Mc.r_dpor);
  check_bool "no violations" true (r.Mc.r_violations = [])

let test_escrow_certify_mutant () =
  let sc = scenario "escrow-certify-mutant" in
  check_bool "declared expect-failure" true sc.Scenario.expect_failure;
  let r = Mc.run_scenario sc in
  check_bool "mutant caught" true r.Mc.r_ok;
  match r.Mc.r_witness with
  | None -> Alcotest.fail "no minimised witness"
  | Some w ->
      let _, v = Mc.replay sc w in
      check_bool "witness replays the serial-state violation" true
        (List.mem "state: matches no serial order of the committed set" v)

(* The doctors-on-duty write skew on the multiversion store: under
   validated occ (commute probes or the rw projection) every explored
   interleaving ends in a state some serial order produces — the
   concurrent sign-off pair conflicts, so one transaction
   validation-aborts and retries against the other's commit. *)
let occ_write_skew_absent name () =
  let r = Mc.run_scenario (scenario name) in
  check_bool "scenario ok" true r.Mc.r_ok;
  check_bool "naive exhausted" true (exhausted r.Mc.r_naive);
  check_bool "dpor exhausted" true (exhausted r.Mc.r_dpor);
  check_bool "verdict sets agree" true r.Mc.r_verdicts_agree

(* The unvalidated snapshot-isolation mutant: the restamped history
   stays green (the snapshot read is folded into the update's commit
   stamp), so only the serial-state oracle can catch the
   both-signed-off-having-seen-each-other-on state — and its minimised
   witness must replay deterministically. *)
let test_occ_si_mutant_caught () =
  let sc = scenario "occ-si-mutant" in
  check_bool "declared expect-failure" true sc.Scenario.expect_failure;
  let r = Mc.run_scenario sc in
  check_bool "mutant caught" true r.Mc.r_ok;
  check_bool "caught by the serial-state oracle" true
    (List.exists
       (fun v -> v = "state: matches no serial order of the committed set")
       r.Mc.r_violations);
  match r.Mc.r_witness with
  | None -> Alcotest.fail "no minimised witness"
  | Some w ->
      let v1, viol1 = Mc.replay sc w in
      let v2, viol2 = Mc.replay sc w in
      check_bool "witness replays the violation" true (viol1 <> []);
      check_bool "replay is deterministic" true (v1 = v2 && viol1 = viol2)

(* Crash scenario: every injected crash point must recover to a state
   the recovery oracles accept (no lost/duplicated compensation). *)
let test_crash_pair_recovers () =
  let r = Mc.run_scenario (scenario "crash-pair") in
  check_bool "scenario ok" true r.Mc.r_ok;
  check_bool "explored to exhaustion" true (exhausted r.Mc.r_naive)

(* Sharded 2PC: exhaustion over session and vote-delivery choices,
   plus the §17 vote-window audit — every recorded schedule re-run
   with full-history votes must reach the same per-transaction
   outcomes. *)
let test_shard_transfer_audit () =
  let r = Mc.run_scenario (scenario "shard-transfer") in
  check_bool "scenario ok" true r.Mc.r_ok;
  check_bool "naive exhausted" true (exhausted r.Mc.r_naive);
  match r.Mc.r_audit with
  | None -> Alcotest.fail "sharded run produced no audit"
  | Some a ->
      check_bool "schedules audited" true (a.Mc.audited > 0);
      check_int "no verdict changes under full votes" 0 a.Mc.mismatches;
      check_int "window engaged (no fallback votes)" 0 a.Mc.vote_full_votes

(* Under [`Certify] the §17 window anchors on the validation-frontier
   watermark: the audit must find every explored schedule decides
   identically under windowed and full-history votes, with no
   full-history fallback paid during the windowed exploration. *)
let test_shard_certify_windowed () =
  let r = Mc.run_scenario ~mode:`Naive (scenario "shard-certify") in
  check_bool "scenario ok" true r.Mc.r_ok;
  match r.Mc.r_audit with
  | None -> Alcotest.fail "sharded run produced no audit"
  | Some a ->
      check_bool "schedules audited" true (a.Mc.audited > 0);
      check_int "watermark window = full votes" 0 a.Mc.mismatches;
      check_int "no full-history votes while windowed" 0 a.Mc.vote_full_votes

let suites =
  [
    ( "mc",
      [
        Alcotest.test_case "disjoint: dpor is a strict reduction" `Quick
          test_disjoint_reduction;
        Alcotest.test_case "shared register: no unsound pruning" `Quick
          test_shared_register_no_pruning;
        Alcotest.test_case "escrow certify: serial-state oracle holds" `Quick
          test_escrow_certify;
        Alcotest.test_case "escrow certify mutant: caught + witness" `Quick
          test_escrow_certify_mutant;
        Alcotest.test_case "mutant: minimal witness replays" `Quick
          test_mutant_witness_replays;
        Alcotest.test_case "occ write skew: commute validation aborts it"
          `Quick
          (occ_write_skew_absent "occ-write-skew");
        Alcotest.test_case "occ write skew: rw (SSI) validation aborts it"
          `Quick
          (occ_write_skew_absent "occ-write-skew-rw");
        Alcotest.test_case "occ SI mutant: serial-state oracle + witness"
          `Quick test_occ_si_mutant_caught;
        Alcotest.test_case "crash pair: recovery oracles hold" `Quick
          test_crash_pair_recovers;
        Alcotest.test_case "shard transfer: exhaustive + audit" `Quick
          test_shard_transfer_audit;
        Alcotest.test_case "shard certify: watermark window audited" `Quick
          test_shard_certify_windowed;
      ] );
  ]
