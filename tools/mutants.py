"""Re-run the recorded mutation checks: each mutant must fail its tests.

Run from anywhere::

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names a file of the package, an exact snippet
that must occur in it once, its replacement, and the pytest node ids that
must fail with the mutant in place.  The tool copies ``src/``, ``tests/``
and ``pyproject.toml`` to a temporary directory, checks that every listed
node passes there unmutated, then applies one mutant at a time and runs its
nodes.  A mutant is

* ``caught`` when every one of its nodes fails;
* ``MISSED`` when some node still passes (the node ids are printed);
* ``stale`` when its snippet no longer occurs exactly once, so a refactor
  that moves the code must update the entry;
* ``error`` when pytest cannot run the nodes (collection or usage error).

The exit status is 0 only when every mutant is caught.  The stdlib
alone is needed here; the tests need the package's test dependencies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

OPTICS = "src/cfcomm/optics.py"
CIRCUIT = "src/cfcomm/circuit.py"
CONFIG = "src/cfcomm/config.py"
PROTOCOL = "src/cfcomm/protocol.py"
SPECTRAL = "src/cfcomm/spectral.py"
RAND = "src/cfcomm/rand.py"
CLI = "src/cfcomm/cli.py"
CLI_TESTS = "tests/test_cli.py::"
ORDER2_TESTS = "tests/test_circuit.py::test_order_two_closed_form_matches_the_walk"
CONFIG_TESTS = "tests/test_config.py::"
CRITERION_9 = "tests/test_acceptance.py::test_criterion_9_folding_equivalence"
LISTING_TESTS = "tests/test_folded.py::test_expansion_matches_direct_build_exactly"
CASCADE_SEARCH_TESTS = "tests/test_spectral.py::test_source_cascade_equals_the_full_grid_search"
RANDOM_TESTS = "tests/test_random_circuits.py::"
PEAK_TABLE_TESTS = "tests/test_spectral.py::test_peak_tables_are_read_only_values"
BITMAP_TESTS = "tests/test_protocol.py::test_bitmaps_are_read_only_values"
FROZEN_TESTS = "tests/test_values.py::test_every_dataclass_is_frozen"
STRIP_TESTS = "tests/test_folded.py::test_modulator_free_circuit_is_the_strip_of_the_unrolling"
SHARED_WALK_TESTS = "tests/test_folded.py::test_both_circuits_of_a_preset_share_one_backward_walk"
BITMAP_DIMENSION_TESTS = "tests/test_protocol.py::test_bitmap_dimensions_must_be_integers"
CONCURRENT_TESTS = "tests/test_spectral.py::test_concurrent_reads_equal_the_serial_reads"
WEAK_VALUE_TESTS = "tests/test_tsvf.py::test_weak_value_identity_per_sideband_component"
DRAWN_WEAK_VALUE_TESTS = (
    "tests/test_random_circuits.py::test_drawn_circuit_sidebands_obey_the_weak_value_identity")

#: (name, file, snippet, replacement, node ids that must fail)
MUTANTS = (
    ("adjoint-no-conj", OPTICS,
     "m = [[x.conjugate() for x in col] for col in zip(*e.m)]",
     "m = [list(col) for col in zip(*e.m)]",
     ("tests/test_optics.py::test_splitter_adjoint_inverts",
      "tests/test_optics.py::test_adjoint_pairing[element0]",
      "tests/test_optics.py::test_adjoint_pairing[element2]")),
    ("adjoint-no-transpose", OPTICS,
     "m = [[x.conjugate() for x in col] for col in zip(*e.m)]",
     "m = [[x.conjugate() for x in row] for row in e.m]",
     # element1 is the non-symmetric 2x2, element4 the attenuator
     ("tests/test_optics.py::test_adjoint_pairing[element1]",
      "tests/test_optics.py::test_adjoint_pairing[element4]")),
    ("tag-sort-reversed", OPTICS,
     "sorted({tag for (mode, tag) in amps if mode == s0 or mode == s1})",
     "sorted({tag for (mode, tag) in amps if mode == s0 or mode == s1}, reverse=True)",
     ("tests/test_optics.py::test_splitter_emits_tags_in_label_sign_instance_order",)),
    ("two-port-tags-unsorted", OPTICS,
     "sorted({tag for (mode, tag) in amps if mode == s0 or mode == s1})",
     "dict.fromkeys(tag for (mode, tag) in amps if mode == s0 or mode == s1)",
     ("tests/test_optics.py::test_splitter_emits_tags_in_label_sign_instance_order",
      "tests/test_optics.py::test_step_equals_the_generic_loop[forward-element0]",
      "tests/test_optics.py::test_step_equals_the_generic_loop[adjoint-element0]")),
    # the int 0 the sum starts from turns a -0.0 part into 0.0
    ("one-port-step-without-int-zero", OPTICS,
     "o = 0 + x0 * a0\n",
     "o = x0 * a0\n",
     ("tests/test_optics.py::test_step_equals_the_generic_loop[forward-element9]",)),
    ("two-port-step-without-int-zero", OPTICS,
     "o = 0 + x0 * a0 + x1 * a1",
     "o = x0 * a0 + x1 * a1",
     ("tests/test_optics.py::test_step_equals_the_generic_loop[forward-element1]",)),
    ("tag-without-instance", OPTICS,
     "((e.label, sign, e.instance),)",
     "((e.label, sign, 0),)",
     ("tests/test_optics.py::test_modulator_distinct_instances_do_not_interfere",
      "tests/test_optics.py::test_modulator_rf_average_matches_instance_model",
      "tests/test_acceptance.py::test_criterion_2_doubling_ratio")),
    # states are read-only values, and the walks are shared, not copied
    ("state-amps-writable", OPTICS,
     '        object.__setattr__(self, "amps", MappingProxyType(self.amps))\n',
     "        pass\n",
     ("tests/test_optics.py::test_states_are_read_only_values",
      "tests/test_circuit.py::test_propagate_hands_out_the_shared_read_only_state",
      "tests/test_circuit.py::test_propagate_cuts_hands_out_one_read_only_walk",
      RANDOM_TESTS + "test_drawn_circuit_walks_are_shared_and_read_only")),
    ("state-rebindable", OPTICS,
     "@dataclass(frozen=True)\nclass PhotonState:",
     "@dataclass\nclass PhotonState:",
     ("tests/test_optics.py::test_states_are_read_only_values",
      "tests/test_circuit.py::test_backward_cuts_hands_out_one_read_only_walk",
      "tests/test_circuit.py::test_two_state_vector_hands_out_the_shared_walks")),
    ("forward-walk-uncached", CIRCUIT,
     "@lru_cache(maxsize=RESULT_CACHE_SIZE)\ndef propagate_cuts(",
     "def propagate_cuts(",
     ("tests/test_circuit.py::test_propagate_hands_out_the_shared_read_only_state",
      "tests/test_circuit.py::test_propagate_cuts_hands_out_one_read_only_walk",
      RANDOM_TESTS + "test_drawn_circuit_walks_are_shared_and_read_only")),
    ("backward-walk-a-list", CIRCUIT,
     "    cuts.reverse()\n    return tuple(cuts)",
     "    cuts.reverse()\n    return cuts",
     ("tests/test_circuit.py::test_backward_cuts_hands_out_one_read_only_walk",)),
    ("two-state-vector-copies-forward", CIRCUIT,
     "return TwoStateVector(fwd, bwd, ps)",
     "return TwoStateVector(tuple(PhotonState(dict(s.amps)) for s in fwd),\n"
     "                          bwd, ps)",
     ("tests/test_circuit.py::test_two_state_vector_hands_out_the_shared_walks",)),
    # faults no nested bench shows, having one source and a vacuum on the
    # second in-port of every splitter: the random circuits catch them
    ("walk-from-first-source-only", CIRCUIT,
     "cuts = [PhotonState.from_sources(circuit.sources)]",
     "cuts = [PhotonState.from_sources(circuit.sources[:1])]",
     (RANDOM_TESTS + "test_every_step_of_a_drawn_circuit_is_the_plain_loop",
      RANDOM_TESTS + "test_drawn_circuit_probabilities_and_overlaps")),
    ("vacuum-on-second-port-only", CIRCUIT,
     'vacuum = arm == "virgin" and len(ins) > 1 and m not in outs',
     'vacuum = arm == "virgin" and len(ins) > 1 and m == ins[-1]',
     (RANDOM_TESTS + "test_every_step_of_a_drawn_circuit_is_the_plain_loop",)),
    # the cut after the pass holds the sidebands this pass just wrote
    ("order2-reads-cut-after-pass", CIRCUIT,
     "cuts[k].components(e.mode)",
     "cuts[k + 1].components(e.mode)",
     (ORDER2_TESTS + "[reference-bit1]", ORDER2_TESTS + "[asymmetric-calibration]",
      "tests/test_circuit.py::test_both_orders_read_one_forward_walk[2]")),
    ("order2-without-sign-pair", CIRCUIT,
     "2.0 * e.alpha ** 2 * w",
     "e.alpha ** 2 * w",
     (ORDER2_TESTS + "[reference-bit1]", ORDER2_TESTS + "[fitted-bit0]",
      ORDER2_TESTS + "[asymmetric-calibration]",
      "tests/test_protocol.py::test_order_two_closed_form_matches_the_walk_on_asymmetric_benches")),
    ("order2-counts-carrier", CIRCUIT,
     "cuts[k].components(e.mode) if tag)",
     "cuts[k].components(e.mode))",
     (ORDER2_TESTS + "[reference-bit1]", ORDER2_TESTS + "[fitted-calibration]",
      ORDER2_TESTS + "[asymmetric-bit0]",
      "tests/test_folded.py::test_twin_gives_identical_terminal_states[2-bit1]")),
    ("order2-alpha-unsquared", CIRCUIT,
     "e.alpha ** 2 * w",
     "e.alpha * w",
     (ORDER2_TESTS + "[reference-bit0]", ORDER2_TESTS + "[asymmetric-bit1]",
      "tests/test_protocol.py::test_order_two_closed_form_matches_the_walk_on_asymmetric_benches")),
    ("order-unchecked", CIRCUIT,
     "    if max_order not in (1, 2):\n",
     "    if False:\n",
     ("tests/test_circuit.py::test_detection_probs_refuses_other_orders[0]",
      "tests/test_circuit.py::test_detection_probs_refuses_other_orders[3]")),
    ("absent-arm-live", CIRCUIT,
     'arm = status.get(m, "virgin")',
     'arm = status.get(m, "live")',
     ("tests/test_circuit.py::test_validate_rejects_element_on_virgin_arm",
      "tests/test_circuit.py::test_validate_rejects_miswired_elements[shutter-on-virgin]",
      "tests/test_circuit.py::test_validate_rejects_miswired_elements[mirror-from-virgin]")),
    ("no-out-port-check", CIRCUIT,
     "                if m in status:\n",
     "                if False:\n",
     ("tests/test_circuit.py::test_validate_rejects_write_into_used_arm",
      "tests/test_circuit.py::test_validate_rejects_miswired_elements[loss-port-into-used]")),
    ("no-detector-liveness", CIRCUIT,
     'if status.get(m, "virgin") != "live":',
     "if False:",
     ("tests/test_circuit.py::test_validate_rejects_detector_on_dead_arm[virgin]",
      "tests/test_circuit.py::test_validate_rejects_detector_on_dead_arm[consumed]")),
    ("sector-dc-cd-swapped", PROTOCOL,
     '("dc", dc), ("cd", cd)',
     '("dc", cd), ("cd", dc)',
     ("tests/test_protocol.py::test_sector_probabilities_match_closed_form[bit0-table0]",
      "tests/test_protocol.py::test_sector_probs_match_grid_average")),
    ("shutter-arm-marked-w", PROTOCOL,
     '(SHUTTER_1, ("z", 1, 0))',
     '(SHUTTER_1, ("w", 1, 0))',
     ("tests/test_protocol.py::test_sector_probabilities_match_closed_form[bit0-table0]",
      "tests/test_protocol.py::test_sector_probs_match_grid_average")),
    ("mark-keeps-unmarked", PROTOCOL,
     "state = PhotonState({(m, tag + (kick,) if m == arm else tag): a",
     "state = PhotonState(dict(state.amps) | {(m, tag + (kick,) if m == arm else tag): a",
     ("tests/test_protocol.py::test_sector_probabilities_match_closed_form[bit0-table0]",
      "tests/test_protocol.py::test_sector_probabilities_match_closed_form[bit1-table1]",
      "tests/test_protocol.py::test_sector_probs_match_grid_average")),
    # the four-term weighted sum rounds differently at each vi even where
    # the coherent and dephased inner sectors are equal
    ("mixture-weighted-sum", PROTOCOL,
     "return dephased + vi * (c - dephased)",
     "return sum(w * s[k][d] for w, k in (\n"
     "            (vi * vo, \"cc\"), (vi * (1.0 - vo), \"cd\"),\n"
     "            ((1.0 - vi) * vo, \"dc\"), ((1.0 - vi) * (1.0 - vo), \"dd\")))",
     ("tests/test_protocol.py::test_closed_shutter_sectors_do_not_see_the_inner_loop",)),
    ("philox-buffer-pos-3", RAND,
     '"buffer_pos": 4,',
     '"buffer_pos": 3,',
     ("tests/test_rand.py::test_point_poisson_equals_per_point_substreams[None-0]",
      "tests/test_rand.py::test_point_poisson_equals_per_point_substreams[100-0]",
      "tests/test_rand.py::test_point_poisson_of_a_subset_equals_the_full_draw[None-0]")),
    # a subset keyed on its positions 0..k-1: a full read cannot see it
    ("subset-keyed-from-zero", RAND,
     "np.asarray(points, dtype=np.uint32)",
     "np.arange(len(points), dtype=np.uint32)",
     ("tests/test_rand.py::test_point_keys_of_given_points_are_rows_of_the_full_table[0-0]",
      "tests/test_rand.py::test_point_poisson_of_a_subset_equals_the_full_draw[None-0]",
      "tests/test_rand.py::test_point_poisson_of_a_subset_equals_the_full_draw[100-0]",
      "tests/test_spectral.py::test_peaks_of_a_fresh_noisy_scan_equal_those_of_its_full_read[20260]")),
    # the point meets the pool under the label's last constants: every key
    # differs from SeedSequence's
    ("point-hash-chain-one-step-late", RAND,
     "_hash_steps(_SS_INIT_A, _SS_MULT_A, 20)",
     "_hash_steps(_SS_INIT_A, _SS_MULT_A, 21)",
     ("tests/test_rand.py::test_point_keys_equal_seed_sequence_keys[0-0]",
      "tests/test_rand.py::test_point_keys_equal_seed_sequence_keys[4294967295-18446744073709551615]",
      "tests/test_rand.py::test_point_poisson_equals_per_point_substreams[None-0]",
      "tests/test_spectral.py::test_noisy_scan_equals_the_per_point_stream_loop[0-1]")),
    # the joint read's counts come from the replicas' stream and back
    ("joint-read-streams-swapped", RAND,
     "count_keys, replica_keys = _point_keys(seed, (0, 1), points).tolist()",
     "replica_keys, count_keys = _point_keys(seed, (0, 1), points).tolist()",
     ("tests/test_rand.py::test_point_poisson_equals_per_point_substreams[None-0]",
      "tests/test_rand.py::test_point_poisson_equals_per_point_substreams[100-0]",
      "tests/test_rand.py::test_point_poisson_of_a_subset_equals_the_full_draw[None-0]",
      "tests/test_spectral.py::test_noisy_scan_equals_the_per_point_stream_loop[0-1]")),
    # a point starts on the words the previous point, or the thread's last
    # read, left in the generator's buffer
    ("generator-buffer-kept", RAND,
     "            bitgen.state = state\n",
     '            state.update({k: bitgen.state[k] for k in ("buffer", "buffer_pos")})\n'
     "            bitgen.state = state\n",
     ("tests/test_rand.py::test_point_poisson_equals_per_point_substreams[None-0]",
      "tests/test_rand.py::test_point_poisson_of_a_subset_equals_the_full_draw[None-0]",
      "tests/test_rand.py::test_point_poisson_of_a_subset_equals_the_full_draw[100-0]",
      CONCURRENT_TESTS)),
    # every thread re-keys one shared generator between another's reset and
    # its draw
    ("generator-shared-by-threads", RAND,
     "_local = threading.local()",
     '_local = type("Shared", (), {})()',
     (CONCURRENT_TESTS,)),
    ("airy-approximate-sin", SPECTRAL,
     "s = np.sin(math.pi * detuning_ghz / self.fsr_ghz)",
     "x = math.pi * detuning_ghz / self.fsr_ghz\n"
     "        s = x - x ** 3 / 6.0",
     ("tests/test_spectral.py::test_etalon_matches_airy_formula",
      "tests/test_spectral.py::test_etalon_peak_and_periodicity")),
    ("cascade-order-reversed", SPECTRAL,
     "for e in etalons:\n            p *= e.transmission(d)",
     "for e in reversed(etalons):\n            p *= e.transmission(d)",
     # the product's rounding depends on its order: stacks of up to four
     # etalons against a fixed-order oracle see it
     ("tests/test_spectral.py::test_source_cascade_fwhm_equals_the_full_bisection",)),
    # the worst side peak of each example lies where the mutant's bound is
    # below the maximum of the top block, or tied with it further on
    ("cascade-bound-from-block-start", SPECTRAL,
     "e.transmission(ends).max(axis=0)",
     "e.transmission(a)",
     (CASCADE_SEARCH_TESTS,)),
    ("cascade-comb-blocks-dropped", SPECTRAL,
     "np.where(comb, 1.0, e.transmission(ends).max(axis=0))",
     "e.transmission(ends).max(axis=0)",
     (CASCADE_SEARCH_TESTS,)),
    ("cascade-kept-blocks-reversed", SPECTRAL,
     "blocks[:, None] + np.arange(_BLOCK)",
     "blocks[::-1, None] + np.arange(_BLOCK)",
     (CASCADE_SEARCH_TESTS,)),
    ("scan-components-reversed", SPECTRAL,
     "q[:, None] * scan.transmission(grid - d[:, None])",
     "q[::-1, None] * scan.transmission(grid - d[::-1, None])",
     ("tests/test_spectral.py::test_scan_sums_drawn_components_like_the_per_component_loop",
      "tests/test_spectral.py::test_noise_free_scan_sums_components_in_order_bit_for_bit")),
    ("nearest-index-takes-nan", SPECTRAL,
     "off = ~(gap[np.arange(idx.size), idx] <= 0.51 * step)",
     "off = gap[np.arange(idx.size), idx] > 0.51 * step",
     ("tests/test_spectral.py::test_nearest_index_refuses_nan",
      "tests/test_spectral.py::test_extract_peaks_refuses_a_nan_modulation_frequency")),
    ("tuning-outer-ratio-inverted", CIRCUIT,
     't = (1.0 - r2o) / r2o * cfg.r2("inner_near")',
     't = r2o / (1.0 - r2o) * cfg.r2("inner_near")',
     # the packaged 50/50 benches cannot tell the ratio from its inverse
     ("tests/test_circuit.py::test_tuning_matches_closed_form_at_uneven_split",
      "tests/test_circuit.py::test_unbalanceable_bench_is_rejected")),
    ("calibration-reference-phase-0", CIRCUIT,
     "return Tuning(solve_tuning(cfg).attenuator_t, math.pi, math.pi)",
     "return Tuning(solve_tuning(cfg).attenuator_t, math.pi, 0.0)",
     ("tests/test_circuit.py::test_calibration_tuning_flips_to_bright",
      "tests/test_circuit.py::test_calibration_phases_maximize_det0",
      "tests/test_circuit.py::test_calibration_probability")),
    # unrolling faults: criterion 9 compares the circuit with the listing of
    # tests/oracles.py, and only an asymmetric bench shows swapped splitters
    ("pass-2-meets-near-first", CIRCUIT,
     "inner_pass(2, LINK_2, dev.inner_far_r2, VAC_INNER_2, SHUTTER_2, OPEN_2,\n"
     "                       LOSS_SHUTTER_2, dev.inner_near_r2, EXIT, DET1)",
     "inner_pass(2, LINK_2, dev.inner_near_r2, VAC_INNER_2, SHUTTER_2, OPEN_2,\n"
     "                       LOSS_SHUTTER_2, dev.inner_far_r2, EXIT, DET1)",
     (CRITERION_9, LISTING_TESTS + "[bit0]", LISTING_TESTS + "[calibration]",
      "tests/test_folded.py::test_expansion_probabilities_agree[True-bit1]",
      "tests/test_folded.py::test_drawn_benches_match_the_listing")),
    ("pass-2-link-modulator-instance-1", CIRCUIT,
     'eom("link", LINK_2, 2)',
     'eom("link", LINK_2, 1)',
     (CRITERION_9, LISTING_TESTS + "[bit0]", LISTING_TESTS + "[bit1]",
      "tests/test_folded.py::test_drawn_benches_match_the_listing")),
    ("shutter-on-pass-1-only", CIRCUIT,
     "if dev.shutter_closed else []",
     "if dev.shutter_closed and n == 1 else []",
     (CRITERION_9, LISTING_TESTS + "[bit1]",
      "tests/test_folded.py::test_expansion_probabilities_agree[False-bit1]",
      "tests/test_folded.py::test_drawn_benches_match_the_listing")),
    # one unrolling per preset: the modulator-free circuit is its strip, and
    # the two share one backward walk per detector
    ("backward-repeat-one-element-early", CIRCUIT,
     "(not isinstance(e, Eom) for e in circuit.elements)",
     "(not isinstance(e, Eom) for e in circuit.elements[1:] + circuit.elements[:1])",
     (SHARED_WALK_TESTS + "[bit0]", SHARED_WALK_TESTS + "[bit1]",
      RANDOM_TESTS + "test_drawn_backward_walk_is_the_plain_loop_and_its_strips",
      ORDER2_TESTS + "[asymmetric-bit0]")),
    ("backward-walks-the-modulator-circuit", CIRCUIT,
     "    if plain is not circuit:\n",
     "    if False:\n",
     (SHARED_WALK_TESTS + "[calibration]",
      "tests/test_folded.py::test_a_preset_walks_backward_once_per_detector",
      RANDOM_TESTS + "test_drawn_backward_walk_is_the_plain_loop_and_its_strips")),
    ("strip-keeps-second-pass-modulators", CIRCUIT,
     "tuple(e for e in c.elements if not isinstance(e, Eom))",
     "tuple(e for e in c.elements if not isinstance(e, Eom) or e.instance == 2)",
     (STRIP_TESTS + "[bit0]", STRIP_TESTS + "[bit1]",
      "tests/test_folded.py::test_drawn_benches_match_the_listing",
      RANDOM_TESTS + "test_drawn_backward_walk_is_the_plain_loop_and_its_strips")),
    ("strip-made-per-call", CIRCUIT,
     "@lru_cache(maxsize=RESULT_CACHE_SIZE)\ndef _stripped(",
     "def _stripped(",
     (STRIP_TESTS + "[calibration]",
      "tests/test_circuit.py::test_build_circuit_returns_one_shared_circuit")),
    ("unknown-keys-accepted", CONFIG,
     "    if unknown:\n",
     "    if False:\n",
     (CLI_TESTS + "test_misspelled_config_key_exits_2[attenuatr_t]",
      CLI_TESTS + "test_misspelled_config_key_exits_2[centre_offset_ghz]",
      CONFIG_TESTS + "test_unknown_key_is_named[attenuatr_t]")),
    ("modulator-keys-unchecked", CONFIG,
     '_known_keys(spec, ("label", "freq_ghz", "alpha"), f"modulator {site!r}")',
     "pass",
     (CONFIG_TESTS + "test_unknown_key_is_named[eoms.link.freq]",
      CONFIG_TESTS + "test_unknown_key_is_named[eoms.open_arm.site]")),
    ("etalon-keys-unchecked", CONFIG,
     '    _known_keys(obj, ("fsr_ghz", "linewidth_ghz"), "etalon entry")\n',
     "",
     (CLI_TESTS + "test_misspelled_config_key_exits_2[centre_offset_ghz]",
      CONFIG_TESTS + "test_unknown_key_is_named[scan_etalon.center_offset_ghz]",
      CONFIG_TESTS + "test_unknown_key_is_named[source_etalons.0.center_offset_ghz]")),
    ("config-decode-error-unmapped", CONFIG,
     "except (json.JSONDecodeError, UnicodeDecodeError) as exc:",
     "except json.JSONDecodeError as exc:",
     (CLI_TESTS + "test_non_utf8_config_exits_2",)),
    ("config-recursion-unmapped", CONFIG,
     "    except RecursionError:\n"
     "        raise ConfigError(f\"config {path} is nested too deeply\") from None\n",
     "",
     (CLI_TESTS + "test_deeply_nested_config_exits_2",)),
    ("config-duplicate-keys-kept", CONFIG,
     "json.load(fh, object_pairs_hook=_unique_keys)",
     "json.load(fh)",
     (CLI_TESTS + "test_duplicate_config_key_exits_2",
      CONFIG_TESTS + "test_duplicate_key_is_named[attenuator_t]",
      CONFIG_TESTS + "test_duplicate_key_is_named[eoms.link.alpha]")),
    ("bitmap-strict-decode", PROTOCOL,
     'encoding="utf-8", errors="replace"',
     'encoding="utf-8"',
     (CLI_TESTS + "test_raw_bitmap_exits_2",)),
    ("real-takes-bools", CONFIG,
     "if isinstance(value, bool) or not isinstance(value, (int, float)):",
     "if not isinstance(value, (int, float)):",
     (CONFIG_TESTS + "test_malformed_config_is_rejected[photon_rate_hz=True]",
      CONFIG_TESTS + "test_malformed_config_is_rejected[attenuator_t=True]",
      CONFIG_TESTS + "test_malformed_config_is_rejected[imperfections.visibility_inner=True]")),
    ("config-no-seed-check", CONFIG,
     "        check_seed(self.seed)\n",
     "",
     (CONFIG_TESTS + "test_seed_range_holds_without_json[-1]",
      CONFIG_TESTS + "test_seed_range_holds_without_json[18446744073709551616]",
      CONFIG_TESTS + "test_seed_range_holds_without_json[1.5]")),
    ("scan-no-seed-check", SPECTRAL,
     "    check_seed(seed)  # noise-free scans too: one seed range everywhere\n",
     "",
     (CLI_TESTS + "test_seed_outside_0_to_2_64_exits_2[-1]",
      CLI_TESTS + "test_seed_outside_0_to_2_64_exits_2[18446744073709551616]")),
    ("scan-stderr-ddof-0", SPECTRAL,
     "axis=1, ddof=1)",
     "axis=1, ddof=0)",
     ("tests/test_spectral.py::test_noisy_scan_equals_the_per_point_stream_loop[0-1]",
      "tests/test_spectral.py::test_noisy_scan_equals_the_per_point_stream_loop[5-37]",
      "tests/test_spectral.py::test_peaks_of_a_fresh_noisy_scan_equal_those_of_its_full_read[0]")),
    # counts that ignore the full read draw the peak points once more
    ("full-read-not-kept", SPECTRAL,
     'full = self.__dict__.get("_full_read")',
     "full = None",
     ("tests/test_spectral.py::test_extract_peaks_draws_only_the_points_it_reads",
      CLI_TESTS + "test_noisy_spectrum_draws_each_point_once")),
    # the peaks draw their 11 points, then the CSV the whole grid again
    ("spectrum-drawn-after-peaks", CLI,
     "    spec.intensity  # the CSV reads the whole grid: draw it once, peaks included\n",
     "",
     (CLI_TESTS + "test_noisy_spectrum_draws_each_point_once",)),
    ("no-poisson-limit", SPECTRAL,
     "if self.seed is not None and expected.max() > POISSON_LAM_MAX:",
     "if False:",
     (CLI_TESTS + "test_malformed_flags_and_unwritable_paths_exit_2[photons 1e300]",
      "tests/test_spectral.py::test_spectrum_validation")),
    # spectra and the sector table are read-only values
    ("spectrum-rebindable", SPECTRAL,
     "@dataclass(frozen=True, eq=False)\nclass Spectrum:",
     "@dataclass(eq=False)\nclass Spectrum:",
     ("tests/test_spectral.py::test_spectra_are_read_only_values",)),
    ("spectrum-arrays-writable", SPECTRAL,
     "            a.flags.writeable = False\n            object.__setattr__",
     "            object.__setattr__",
     ("tests/test_spectral.py::test_spectra_are_read_only_values",)),
    ("full-read-writable", SPECTRAL,
     "        intensity.flags.writeable = stderr.flags.writeable = False\n",
     "",
     ("tests/test_spectral.py::test_spectra_are_read_only_values",)),
    ("scan-table-writable", SPECTRAL,
     "    grid.flags.writeable = expected.flags.writeable = False\n",
     "",
     ("tests/test_spectral.py::test_scans_share_one_expected_count_table",)),
    # two equal rows reach the solve, or the draws
    ("two-peaks-on-one-point-unchecked", SPECTRAL,
     "        if k in first:\n",
     "        if False:\n",
     ("tests/test_spectral.py::test_extract_peaks_refuses_two_positions_on_one_scan_point",)),
    # the weak-value identity per sideband component: the phase of each
    # sideband, which no intensity on the benches shows
    ("sideband-from-conjugate-carrier", OPTICS,
     "complex(e.alpha) * a\n",
     "complex(e.alpha) * a.conjugate()\n",
     (WEAK_VALUE_TESTS + "[bit0]", WEAK_VALUE_TESTS + "[bit1]",
      WEAK_VALUE_TESTS + "[calibration]", DRAWN_WEAK_VALUE_TESTS)),
    ("down-sideband-negated", OPTICS,
     "amps[key] = amps.get(key, 0j) + complex(e.alpha) * a",
     "amps[key] = amps.get(key, 0j) + sign * complex(e.alpha) * a",
     (WEAK_VALUE_TESTS + "[bit0]", WEAK_VALUE_TESTS + "[calibration]",
      DRAWN_WEAK_VALUE_TESTS)),
    ("pass-instances-share-a-bucket", OPTICS,
     "key = (e.mode, ((e.label, sign, e.instance),))",
     "key = (e.mode, ((e.label, sign, 1),))",
     (WEAK_VALUE_TESTS + "[bit1]", WEAK_VALUE_TESTS + "[calibration]",
      DRAWN_WEAK_VALUE_TESTS)),
    ("sector-table-writable", PROTOCOL,
     "return MappingProxyType({name:",
     "return dict({name:",
     ("tests/test_protocol.py::test_sector_table_is_read_only",)),
    ("peak-table-rebindable", SPECTRAL,
     "@dataclass(frozen=True)\nclass PeakTable:",
     "@dataclass\nclass PeakTable:",
     (PEAK_TABLE_TESTS, FROZEN_TESTS)),
    ("peak-labels-writable", SPECTRAL,
     'object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))',
     'object.__setattr__(self, "labels", dict(self.labels))',
     (PEAK_TABLE_TESTS,)),
    ("bitmap-rebindable", PROTOCOL,
     "@dataclass(frozen=True, eq=False)\nclass Bitmap:",
     "@dataclass(eq=False)\nclass Bitmap:",
     (BITMAP_TESTS, FROZEN_TESTS)),
    ("bitmap-shares-caller-array", PROTOCOL,
     "bits = raw.astype(np.uint8)  # always a copy",
     "bits = raw.astype(np.uint8, copy=False)",
     (BITMAP_TESTS,)),
    ("bitmap-bits-writable", PROTOCOL,
     "        bits.flags.writeable = False\n",
     "",
     (BITMAP_TESTS,)),
    ("bitmap-takes-bool-dimensions", PROTOCOL,
     "                if isinstance(value, bool):\n",
     "                if False:\n",
     (BITMAP_DIMENSION_TESTS + "[True-3]", BITMAP_DIMENSION_TESTS + "[3-False]")),
    ("bitmap-checked-after-cast", PROTOCOL,
     "if not np.isin(raw, (0, 1)).all():",
     "if not np.isin(raw.astype(np.uint8), (0, 1)).all():",
     ("tests/test_protocol.py::test_bitmap_validation",)),
)


def run_nodes(root: str, nodes) -> tuple[int, set[str], str]:
    """pytest on the nodes in the copy: exit code, failed node ids, output.

    No bytecode is written, so a mutated source is always compiled afresh.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         *nodes], cwd=root, env=env, capture_output=True, text=True)
    failed = {line[len("FAILED "):].split(" - ", 1)[0]
              for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    return proc.returncode, failed, proc.stdout + proc.stderr


def check(root: str, mutant) -> tuple[str, str]:
    """Apply one mutant to the copy, run its nodes, restore the file."""
    _, rel, snippet, replacement, nodes = mutant
    path = os.path.join(root, rel)
    with open(path) as fh:
        original = fh.read()
    if original.count(snippet) != 1:
        return "stale", f"snippet occurs {original.count(snippet)} times in {rel}"
    try:
        with open(path, "w") as fh:
            fh.write(original.replace(snippet, replacement))
        code, failed, out = run_nodes(root, nodes)
    finally:
        with open(path, "w") as fh:
            fh.write(original)
    if code not in (0, 1):
        return "error", out[-2000:]
    passed = [n for n in nodes if n not in failed]
    if passed:
        return "MISSED", "still passing: " + ", ".join(passed)
    return "caught", f"{len(nodes)} node(s) failed"


def main() -> int:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="cfcomm-mutants-") as root:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(root, name),
                            ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), root)

        nodes = sorted({n for m in MUTANTS for n in m[4]})
        code, failed, out = run_nodes(root, nodes)
        if code != 0:
            print(out[-4000:])
            print(f"baseline: the unmutated tree fails {sorted(failed) or 'to run'}")
            return 1
        results = []
        for mutant in MUTANTS:
            status, detail = check(root, mutant)
            results.append(status)
            print(f"{status:7} {mutant[0]}: {detail}", flush=True)
    caught = results.count("caught")
    print(f"{caught}/{len(results)} mutants caught in "
          f"{time.perf_counter() - t0:.1f} s")
    return 0 if caught == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
