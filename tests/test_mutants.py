"""Named mutants of the library, each of which a named check must catch.

A mutant is one function's source with one plausible bug edited in. It is
compiled against its module's globals and patched over every attribute of
the library's and the tests' modules that holds the original, so callers
that imported the function by name see it too. Each mutant names the checks
that must fail under it; a property test runs with a fixed, derandomized
example budget and no shrinking, so its verdict is the same on every run.
"""

import inspect
import sys
import types
from dataclasses import dataclass

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from siou import _csvformat, gaussian, geometry, sheet, simulator
from test_csvformat import test_random_bit_patterns_match_repr as bit_patterns_property
from test_csvformat import test_the_edge_values_match_repr as edge_values
from test_geometry import path_families
from test_gaussian import test_factorize_deflates_a_duplicated_corner_onto_its_first_copy as duplicated_corner
from test_gaussian import test_factorize_gives_the_same_bytes_with_two_blas_threads_in_the_pool as two_thread_pool
from test_gaussian import test_runs_of_at_least_one_block_are_prefixes_of_longer_runs_at_300_columns as prefix_300
from test_geometry import test_tuple_path_matches_array_path as tuple_property
from test_sheet import test_batch_paths_runs_of_whole_blocks_are_prefixes_of_longer_runs as whole_block_prefix
from test_sheet import test_points_sharing_a_support_are_deflated_without_jitter as shared_support
from test_simulator import FAMILY, STARTS
from test_simulator import (
    test_both_samplers_decay_a_skewed_empirical_start_onto_the_point_started_field as skewed_start,
)
from test_simulator import test_simulate_matches_dirac_moments as dirac_moments
from test_simulator import test_simulate_matches_the_one_shot_sampler as one_shot

PROPERTY_BUDGET = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                           phases=(Phase.explicit, Phase.generate))


@dataclass(frozen=True)
class Mutant:
    name: str
    module: types.ModuleType
    function: str
    old: str
    new: str
    checks: tuple[str, ...]


MUTANTS = (
    Mutant("zero_nets_kept", geometry, "_signed_meets", "sorted(item for item in nets.items() if item[1])",
           "sorted(nets.items())", ("test_tuple_path_matches_array_path",)),
    Mutant("max_for_meets", geometry, "_signed_meets", "tuple(map(min, c, r))", "tuple(map(max, c, r))",
           ("test_tuple_path_matches_array_path",)),
    Mutant("dominated_rows_kept", geometry, "canonicalize",
           "sorted(r for r in rows if not any(r != s and all(map(operator.le, r, s)) for s in rows))",
           "sorted(rows)", ("test_tuple_path_matches_array_path",)),
    # The sequential sampler draws the origin from a normal with the empirical law's mean and variance.
    Mutant("gaussian_origin", simulator, "simulate", "initial.draw(gen,",
           "InitialLaw.normal(np.mean(initial.params), np.var(initial.params)).draw(gen,",
           ("test_both_samplers_decay_a_skewed_empirical_start_onto_the_point_started_field",)),
    # Later blocks keep the first block's origin values, and the stream runs one origin draw short per block.
    Mutant("origin_first_block_only", simulator, "simulate", "block[0] = initial.draw(gen, rows)",
           "if start == 0: block[0] = initial.draw(gen, rows)", ("test_simulate_matches_the_one_shot_sampler",)),
    # Each step forgets its first frontier corner.
    Mutant("first_parent_dropped", simulator, "simulate", "zip(tp.weights, step.parents)",
           "zip(tp.weights[1:], step.parents[1:])", ("test_simulate_matches_dirac_moments",)),
    # The sheet counts only the centers strictly below a point, so a point on a center shares a key with one below it.
    Mutant("support_key_below_center", sheet, "_sheet_factor", 'side="right"', 'side="left"',
           ("test_points_sharing_a_support_are_deflated_without_jitter",)),
    Mutant("repeat_left_zero", gaussian, "factorize", "return low[owner], 0.0", "return low, 0.0",
           ("test_factorize_deflates_a_duplicated_corner_onto_its_first_copy",)),
    # factorize leaves OpenBLAS at the thread count it finds, so LAPACK's factor follows that count.
    Mutant("two_thread_factor", gaussian, "factorize", "_one_blas_thread()", "contextlib.nullcontext()",
           ("test_factorize_gives_the_same_bytes_with_two_blas_threads_in_the_pool",)),
    # The last block multiplies only its fresh rows, as into an output that is not padded to whole blocks.
    Mutant("short_last_product", gaussian, "_draw_rows", "np.matmul(z, factor.T, out=rows)",
           "np.matmul(z[: n - start], factor.T, out=rows[: n - start])",
           ("test_runs_of_at_least_one_block_are_prefixes_of_longer_runs_at_300_columns",)),
    # The CSV formatter breaks a tie between two nearest digit strings toward the odd one.
    Mutant("ties_to_odd", _csvformat, "_shortest", "((s & _U(1)) == _U(0))", "((s & _U(1)) == _U(1))",
           ("test_random_bit_patterns_match_repr",)),
    # Its products are truncated, not rounded to odd, so an inexact product can read as a tie or an interval end.
    Mutant("truncated_products", _csvformat, "_round_to_odd", " | (((z & _M63) + _M63) >> _U(63))", "",
           ("test_random_bit_patterns_match_repr",)),
    # The interval's ends lie a quarter of the float spacing from x, not half.
    Mutant("interval_half_as_wide", _csvformat, "_interval", "h + _U(1), _U(63) - h", "h, _U(64) - h",
           ("test_random_bit_patterns_match_repr",)),
    # Trailing zeros are counted in the last 8 digits only, so a short value keeps zeros after its last digit.
    Mutant("zeros_in_the_last_word_only", _csvformat, "_digits", " + 8 * (word[:, 1] == _U(0))", "",
           ("test_the_edge_values_match_repr",)),
)

CHECKS = {
    "test_tuple_path_matches_array_path":
        lambda: PROPERTY_BUDGET(given(path_families())(tuple_property.hypothesis.inner_test))(),
    "test_both_samplers_decay_a_skewed_empirical_start_onto_the_point_started_field": skewed_start,
    "test_simulate_matches_the_one_shot_sampler": lambda: one_shot(FAMILY, STARTS[1], 20_000),
    "test_simulate_matches_dirac_moments": dirac_moments,
    "test_points_sharing_a_support_are_deflated_without_jitter":
        lambda: [shared_support(steep, stationary) for steep in (1.0, 40.0) for stationary in (False, True)],
    "test_batch_paths_runs_of_whole_blocks_are_prefixes_of_longer_runs":
        lambda: [whole_block_prefix(stationary) for stationary in (False, True)],
    "test_factorize_deflates_a_duplicated_corner_onto_its_first_copy": duplicated_corner,
    "test_factorize_gives_the_same_bytes_with_two_blas_threads_in_the_pool": two_thread_pool,
    "test_runs_of_at_least_one_block_are_prefixes_of_longer_runs_at_300_columns": prefix_300,
    "test_random_bit_patterns_match_repr": lambda: PROPERTY_BUDGET(
        given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(0.0, 0.2))(
            bit_patterns_property.hypothesis.inner_test))(),
    "test_the_edge_values_match_repr": edge_values,
}


def _mutated(mutant: Mutant):
    original = getattr(mutant.module, mutant.function)
    source = inspect.getsource(original)
    assert source.count(mutant.old) == 1, f"{mutant.name}: the edited line is no longer in {mutant.function}"
    scratch = dict(vars(mutant.module))
    exec(compile(source.replace(mutant.old, mutant.new), f"<mutant {mutant.name}>", "exec"), scratch)
    fn = scratch[mutant.function]
    return original, types.FunctionType(fn.__code__, vars(mutant.module), fn.__name__, fn.__defaults__)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_every_named_check_catches_the_mutant(mutant, monkeypatch):
    original, bad = _mutated(mutant)
    for module in [m for name, m in sys.modules.items() if name.startswith(("siou.", "test_"))]:
        if getattr(module, mutant.function, None) is original:
            monkeypatch.setattr(module, mutant.function, bad)
    for check in mutant.checks:
        with pytest.raises(AssertionError) as caught:
            CHECKS[check]()
        print(f"{mutant.name}: {check} failed with {caught.typename}: {str(caught.value).splitlines()[0]}")


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_every_named_check_passes_without_a_mutant(check):
    CHECKS[check]()
