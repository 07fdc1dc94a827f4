"""The input contract, fuzzed (Hypothesis: MacIver et al. 2019, after
QuickCheck: Claessen & Hughes 2000).

Every reader either returns a value that it reads back unchanged, or raises
the error class it was handed, with a message that starts with the name it
was handed; the array reader returns exactly the arrays that fit its shape
and bounds. ``parse_config`` ends every JSON value in a config or a
``ConfigError``, and ``replace`` raises what ``parse_config`` raises for the
same edit. ``propose_ties`` ends any overrides in tie records or a
``ConfigError`` that names one of them. An edge list of arbitrary bytes
that asks for a few nodes is a graph or a ``GraphError``. No fuzzed config
is run: one that parses can still ask for unbounded memory. Graphs and
populations are not data arguments, and are not fuzzed here; a generator
argument is checked for its type alone.
"""

import json
import operator
import os
import re
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knowflow import (
    CommunityError,
    ConfigError,
    DiffusionError,
    GraphError,
    Population,
    Probe,
    RoleError,
    ScenarioConfig,
    TimeSeries,
    WeightedGraph,
    WorkforceError,
    apply_expert,
    assign_weights,
    fixture_names,
    generate_watts_strogatz,
    init_workers,
    jaccard_similarity,
    knowledge_energy,
    load_fixture,
    parse_config,
    propose_ties,
    rank_nodes,
    read_edge_list,
    stabilization_step,
)
from knowflow import _contract, scenario


class Rejected(ValueError):
    """The error class every reader is handed here, so that no other error passes for it."""


NAMED = re.compile(r"^x(\[\d+\])*: ")  # every reader below is handed the name "x"

# -- values --------------------------------------------------------------------------

numpy_scalars = st.one_of(
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-3, 12),
    st.floats(),
    st.fractions(max_denominator=10),
    st.text(max_size=4),
    st.sampled_from(["average_competence", "a.b-c_1", "../x", "", "csv", "1.5"]),
    st.binary(max_size=3),
    st.binary(max_size=3).map(bytearray),
    numpy_scalars,
)
arrays = st.one_of(
    st.integers(-3, 3).map(np.array),
    st.lists(st.floats(), max_size=3).map(np.array),
    st.builds(
        lambda items, dtype, rows: np.array(items, dtype=dtype).reshape((rows, -1) if len(items) % rows == 0 else -1),
        st.lists(st.integers(-3, 3), max_size=6),
        st.sampled_from([np.float32, np.int64, np.bool_, "U2"]),
        st.sampled_from([1, 2]),
    ),
)
values = st.recursive(
    scalars | arrays,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)

# -- the readers -------------------------------------------------------------------


def _bounds(numbers, **options):
    return st.fixed_dictionaries({}, optional={**{key: numbers for key in ("lo", "hi", "gt", "lt")}, **options})


int_bounds = _bounds(st.integers(-5, 20))
float_bounds = _bounds(st.floats(-5.0, 20.0))
items = st.sampled_from(
    [
        partial(_contract._as_int, error=Rejected, lo=0),
        partial(_contract._as_float, error=Rejected),
        partial(_contract._as_str, error=Rejected),
    ]
)
list_options = st.fixed_dictionaries(
    {"item": items},
    optional={"empty": st.booleans(), "unique": st.just("entry"), "then": st.sampled_from([list, sorted])},
)
ids_options = st.fixed_dictionaries({"below": st.integers(0, 6)}, optional={"empty": st.booleans()})
choices = st.fixed_dictionaries({}, optional={"choices": st.lists(st.sampled_from("ab"), min_size=1)})
# A shape gives each axis's length, None for a free axis; ``integer`` asks for integers, kept as they are.
array_options = _bounds(
    st.floats(-5.0, 20.0), shape=st.lists(st.none() | st.integers(0, 3), max_size=3).map(tuple), integer=st.booleans()
)
# Each reader, and a strategy for the options it takes after (value, path, error).
READERS = {
    "int": (_contract._as_int, int_bounds),
    "float": (_contract._as_float, float_bounds),
    "pair": (_contract._as_pair, float_bounds),
    "list": (_contract._as_list, list_options),
    "ids": (_contract._as_ids, ids_options),
    "bool": (_contract._as_bool, st.just({})),
    "str": (_contract._as_str, choices),
    "name": (_contract._as_name, st.just({})),
    "array": (_contract._as_array, array_options),
}


@st.composite
def readers(draw):
    """A reader of the contract with options drawn for it, as a function of the value alone."""
    name = draw(st.sampled_from(sorted(READERS)))
    read, options = READERS[name]
    return name, partial(read, path="x", error=Rejected, **draw(options))


def _unchanged(again, result) -> bool:
    if isinstance(result, np.ndarray):
        return again is result  # a float array is read without a copy
    return type(again) is type(result) and again == result


@settings(max_examples=80, deadline=None)
@given(readers(), values)
# A byte string is a Sequence of integers, but never a list of ids or numbers.
@example(("ids", partial(_contract._as_ids, path="x", error=Rejected, below=2)), b"\x00\x01")
@example(("pair", partial(_contract._as_pair, path="x", error=Rejected)), bytearray(b"\x00\x01"))
@example(("list", partial(_contract._as_list, path="x", error=Rejected, item=partial(_contract._as_int, error=Rejected))),
         memoryview(b"\x01"))
def test_a_reader_reads_back_what_it_returns_or_names_its_input(reader, value):
    name, read = reader
    try:
        result = read(value)
    except Rejected as exc:
        assert NAMED.match(str(exc)), (name, str(exc))
    else:
        assert _unchanged(read(result), result), (name, value, result)
        assert not (name in {"pair", "list", "ids"} and isinstance(value, (str, bytes, bytearray, memoryview))), name


_COMPARE = {"lo": operator.ge, "hi": operator.le, "gt": operator.gt, "lt": operator.lt}


def _fits(array, shape=None, **options) -> bool:
    """``array`` has ``shape`` (None: any length) and, under bounds, only finite entries within them."""
    if shape is not None and (array.ndim != len(shape) or any(w not in (None, a) for a, w in zip(array.shape, shape))):
        return False
    bounds = {key: options[key] for key in _COMPARE if key in options}
    return not bounds or bool(np.isfinite(array).all() and all(_COMPARE[k](array, b).all() for k, b in bounds.items()))


@settings(max_examples=60, deadline=None)
@given(arrays | st.lists(st.sampled_from([0.0, 0.5, 1.0, 3, -1.0, np.inf, np.nan]), max_size=4), array_options)
# Entries beyond a bound on one side only: the least entry alone passes.
@example([0.5, 3.0], {"hi": 1.0})
@example([[0.5], [np.inf]], {"lo": 0.0, "shape": (None, 1)})
# Integers: a negative one under a bound, floats and booleans that are whole numbers, and no entry at all.
@example([0, -1], {"integer": True, "lo": 0})
@example([0.0, 1.0], {"integer": True})
@example([True], {"integer": True})
@example([], {"integer": True, "lo": 0, "shape": (None,)})
def test_an_array_is_read_if_and_only_if_it_fits_its_shape_and_bounds(value, options):
    integer = options.get("integer", False)
    kinds = "iu" if integer else "biuf"  # an empty array holds no entry of a wrong kind
    try:
        result = _contract._as_array(value, "x", Rejected, **options)
    except Rejected as exc:
        assert NAMED.match(str(exc)), str(exc)
        numbers = np.asarray(value)
        wrong_kind = numbers.size and numbers.dtype.kind not in kinds
        assert wrong_kind or not _fits(numbers.astype(float), **options), (value, options)
    else:
        assert result.dtype.kind == "f" if not integer else result.dtype.kind in "iu", (value, options)
        assert _fits(result, **options), (value, options)


@settings(max_examples=30, deadline=None)
@given(st.integers(-(10**20), 10**20) | st.floats(allow_nan=False, allow_infinity=False), float_bounds)
def test_bounded_passes_a_number_within_its_bounds_unchanged(value, bounds):
    try:
        result = _contract._bounded(value, "x", Rejected, **bounds)
    except Rejected as exc:
        assert re.match(r"^x: must be (>=|<=|>|<) \S+, got ", str(exc))
    else:
        assert result is value
        assert all(op(value, bounds[key]) for key, op in _COMPARE.items() if key in bounds)


TWO_WORKERS = Population(np.ones((2, 3)), np.ones((2, 3)), [0.5, 0.5], [0.5, 0.5], [0.0, 0.0])


@settings(max_examples=30, deadline=None)
@given(values, values)
def test_array_arguments_end_in_their_module_error(a, b):
    """An array argument that numpy cannot read as numbers is its module's error, never numpy's."""
    calls = (
        (lambda: jaccard_similarity(a, b), CommunityError),
        (lambda: knowledge_energy(TWO_WORKERS, 0, a), CommunityError),
        (lambda: stabilization_step(a), ConfigError),
        (lambda: Population(a, b, [0.5], [0.5], [0.0]), WorkforceError),
        (lambda: WeightedGraph(3, a), GraphError),
        (lambda: TimeSeries([("average_competence", "all")], [0, 1], a), DiffusionError),
        (lambda: TimeSeries([("average_competence", "all")], a, np.zeros((2, 1))), DiffusionError),
        (lambda: Probe(a, b, len), DiffusionError),
    )
    for call, error in calls:
        try:
            with np.errstate(all="ignore"):  # inf and NaN are numbers: their arithmetic is not checked here
                call()
        except error:
            pass


EDGE_LINES = st.one_of(
    st.builds("# nodes={}".format, st.integers(-1, 6) | st.sampled_from(["", "x", "1.0", "0x3", "\u0663"])),
    st.builds(
        "{},{},{}".format,
        *[st.integers(-1, 6) | st.sampled_from(["", "1.5", " 2", "1e400", "nan", "x"])] * 2,
        st.floats(-1.0, 2.0) | st.sampled_from(["", "nan", "inf", "1e400", "1", "x", "0x1p-2"]),
    ),
    st.sampled_from(["", "#", "# c", "0,1", "0,1,2,3", "\t"]),
)
edge_lists = st.binary(max_size=24) | st.lists(EDGE_LINES, max_size=6).map(lambda rows: "\n".join(rows).encode())


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_an_edge_list_of_any_bytes_is_a_graph_or_a_graph_error(data):
    with tempfile.TemporaryDirectory() as tmp:  # a drawn header asks for at most 6 nodes, which numpy can allocate
        path = Path(tmp) / "g.txt"
        path.write_bytes(data)
        try:
            graph = read_edge_list(path)
        except GraphError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
        else:
            assert isinstance(graph, WeightedGraph)


@pytest.mark.parametrize("rng", [None, 5, np.random.SeedSequence(1)], ids=repr)
def test_every_rng_argument_is_a_generator(rng):
    ring = generate_watts_strogatz(4, 2, 0.0, np.random.default_rng(0))
    calls = (
        (lambda: generate_watts_strogatz(4, 2, 0.5, rng), GraphError),
        (lambda: assign_weights(ring, (1.0, 1.0), rng), GraphError),  # a constant range draws nothing
        (lambda: init_workers(2, 3, (0, 1), 0.5, (0, 1), (0, 1), 0.0, rng), WorkforceError),
        (lambda: apply_expert(TWO_WORKERS, [], (1.0, 2.0), rng), RoleError),
        (lambda: rank_nodes(ring, "random", rng), RoleError),
    )
    for call, error in calls:
        with pytest.raises(error, match=f"^{re.escape(f'rng: expected a numpy random Generator, got {rng!r}')}$"):
            call()


# -- configs -----------------------------------------------------------------------

_TOKENS = [
    "uniform", "constant", "expert", "facilitator", "collector", "degree", "random", "none", "fixture",
    "jaccard", "manual", "algorithm", "and", "majority", "average_competence", "collector_intake", "csv",
    "json", "both", "single", "double", "a",
]
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 30),
    st.integers(),
    st.floats(),  # Python's json reads NaN and Infinity too
    st.floats(0.0, 1.0),
    st.sampled_from(_TOKENS),
    st.text(max_size=3),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["node", "mask", "a"]), inner),
    max_leaves=6,
)
FIXTURES = {name: load_fixture(name) for name in fixture_names()}


def _like(value):
    """Values of ``value``'s JSON type, so that an edit can keep a config's shape and reach the rules past its types."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, (int, float)):
        return st.integers(-2, 30) | st.floats(-0.5, 2.0)
    if isinstance(value, str):
        return st.sampled_from(_TOKENS)
    if isinstance(value, list) and value:
        return st.lists(st.sampled_from(value) | _like(value[0]), max_size=4)
    return json_values


def _paths(data, path=()):
    """Every position in a JSON value, as the keys and indices that lead to it."""
    yield path
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def edited_fixtures(draw):
    """A fixture's JSON with one to three of its values replaced, dropped, or joined by a new key."""
    data = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))].to_dict()
    for _ in range(draw(st.integers(1, 3))):
        *parent, last = draw(st.sampled_from([p for p in _paths(data) if p]))
        holder = data
        for key in parent:
            holder = holder[key]
        action = draw(st.sampled_from(["like", "like", "replace", "drop", "add"]))
        if action == "drop" and isinstance(holder, dict):
            del holder[last]
        elif action == "add" and isinstance(holder, dict):
            holder[draw(st.text(max_size=3))] = draw(json_values)
        else:
            holder[last] = draw(_like(holder[last]) if action == "like" else json_values)
    return data


def _outcome(call):
    """What a call gives: its value, or the text of the ConfigError it raises; any other error fails the test."""
    try:
        return call()
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(json_values | edited_fixtures())
def test_parse_config_ends_any_json_in_a_config_or_a_config_error(data):
    cfg = _outcome(lambda: parse_config(data))
    if isinstance(cfg, ScenarioConfig):
        assert parse_config(json.loads(json.dumps(cfg.to_dict()))) == cfg == cfg.replace()
    else:
        assert re.match(r"^[\w.\[\]-]*: ", cfg), cfg


SECTIONS = [None, *(name for name in ScenarioConfig._keys if name != "name")]


@st.composite
def edits(draw):
    """One key edit of one fixture section (None: the config itself); a None value drops the key."""
    fixture = draw(st.sampled_from(sorted(FIXTURES)))
    cfg = FIXTURES[fixture]
    section = draw(st.sampled_from([s for s in SECTIONS if s is None or getattr(cfg, s) is not None]))
    spec = cfg if section is None else getattr(cfg, section)
    key = draw(st.sampled_from([*type(spec)._keys, "bogus"]))
    data = cfg.to_dict() if section is None else cfg.to_dict()[section]
    return fixture, section, key, draw(st.none() | _like(data[key]) if key in data else json_values)


@settings(max_examples=40, deadline=None)
@given(edits())
def test_replace_raises_what_parse_config_raises_for_the_same_edit(edit):
    fixture, section, key, value = edit
    cfg = FIXTURES[fixture]
    data = cfg.to_dict()
    target = data if section is None else data[section]
    if value is None:  # replace's None drops the key, so its default applies
        target.pop(key, None)
    else:
        target[key] = value
    parsed = _outcome(lambda: parse_config(data, source="ScenarioConfig"))
    if section is None:
        assert _outcome(lambda: cfg.replace(**{key: value})) == parsed
        return
    spec = getattr(cfg, section)
    changed = _outcome(lambda: spec.replace(**{key: value}))
    if isinstance(changed, str):  # replace names the section's keys bare, and the section itself by its class
        assert isinstance(parsed, str), (changed, parsed)
        bare = parsed.replace(f"{section}.", "")
        assert changed == (type(spec).__name__ + bare[len(section) :] if bare.startswith(f"{section}: ") else bare)
    else:  # the rules across sections see the edit when the config takes the new section
        assert _outcome(lambda: cfg.replace(**{section: changed})) == parsed


OVERRIDES = ("seed", "community_index", "budget")


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional=dict.fromkeys(OVERRIDES, values | st.integers(0, 3) | st.integers(0, 2**70))))
def test_propose_ties_ends_any_overrides_in_tie_records_or_an_error_naming_one(overrides):
    """A None override takes the config's value; any other is read, and a bad one is a ConfigError naming it."""
    records = _outcome(lambda: propose_ties(FIXTURES["fig9"], **overrides))
    if isinstance(records, str):
        named = records.split(":")[0]
        assert named in OVERRIDES and overrides.get(named) is not None, (overrides, records)
    else:
        assert isinstance(records, list) and all(record["mode"] == "algorithm" for record in records), records


# Failing configs of the kinds the fuzzing above reports, each cut down to one bad
# value: a value deep in a list, a rule across sections, and a NaN.
FIG9 = FIXTURES["fig9"].to_dict()
SHRUNK = [
    {**FIG9, "run": {"steps": 1, "seeds": [1], "probes": [{"mask": {"name": "a", "competences": [0.5]}}]}},
    {**FIG9, "run": {"steps": 1, "seeds": [1], "probes": [{"node": 25}]}},
    {**FIG9, "network": {"nodes": 25, "rewire_prob": float("nan")}},
]


def test_the_cli_exits_with_a_config_error_on_the_shrunk_failures(tmp_path):
    for i, data in enumerate(SHRUNK):
        (tmp_path / f"{i}.json").write_text(json.dumps(data))
    env = {**os.environ, "PYTHONPATH": str(Path(scenario.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    children = [  # started together, so that their start-up overlaps
        subprocess.Popen(
            [sys.executable, "-m", "knowflow.cli", "run", str(path), "--out", str(tmp_path / "out")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for path in sorted(tmp_path.glob("*.json"))
    ]
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode in (2, 3) and out == "", err
        assert err.startswith(("config error: ", "error: ")) and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()
