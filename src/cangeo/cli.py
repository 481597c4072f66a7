"""Command-line front end.

Five subcommands: `classify` one (d, s) pair, `table` a rectangle of
pairs, `oracle` for direct finite-field measurements, `xi` for the
two-component enumeration, `geography` for plot-ready line and point
data.  Output goes to stdout in one of three formats; diagnostics go to
stderr.  Identical invocations produce byte-identical stdout.

Exit codes: 0 success, 1 stdout closed by the reader (nothing on
stderr) or an uncaught internal failure (its traceback on stderr, the
only way to tell the two apart), 2 bad input (an oracle system over the
matrix size or elimination work cap included; stdout is then empty, as
every input error is decided from the command's arguments before the
first byte), 3 oracle measurement disagreeing with a closed-form
prediction (rerun with another seed; persistent mismatch means a bug on
one side or the other).

A command checks its input and returns its rows (`Rows`) unwritten;
`main` then streams them.  Closed-form rows are stepped along the runs of
`classify.s_runs` and held column by column; every format lays out a
run's line template once and fills it in row by row.  A table is planned,
and with the oracle measured, one `d` at a time, as its rows are written
and flushed.

Each command imports only the layers it runs: a closed-form row
`invariants`, `xi` and `geography` the atlas (and `scrolls`), the oracle
numpy, and json output `json`; no closed-form command loads `fractions`.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial
from itertools import chain, islice, repeat
from typing import NamedTuple

from .classify import (BlowupPair, DeformationClass, TriState, _ratio_text,
                       alpha_surjective, classify, deformation_class, s_runs,
                       smooth_cover_exists, zone_rule, zones)
from .defaults import (DEFAULT_PRIME, DEFAULT_SEED, DEFAULT_TRIALS, MAX_PRIME,
                       MAX_TRIALS, _is_prime)

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_MISMATCH = 3

MIN_PRIME = 10 ** 6

CLASSIFY_COLUMNS = ["d", "s", "very_ample", "smooth_cover", "alpha_surjective",
                    "ext1_nonzero", "deformation", "rule",
                    "p_g", "q", "chi", "c1sq", "c2", "slope", "mu", "mu2",
                    "codim"]
CLASSIFY_ORACLE_COLUMNS = CLASSIFY_COLUMNS + [
    "alpha_rank", "alpha_dim_source", "alpha_dim_target", "alpha_coker",
    "oracle_flag"]
H_COLUMNS = ["k", "r", "s", "seed", "trials", "prime",
             "measured", "virtual", "defect", "expected", "flag"]
ALPHA_COLUMNS = ["d", "s", "seed", "trials", "prime",
                 "rank", "dim_source", "dim_target", "coker",
                 "surjective_measured", "surjective_formula", "flag"]
XI_COLUMNS = ["x_prime", "y", "m", "d", "s", "certified",
              *(f"scroll_witness_{key}" for key in "rlabc")]
GEOGRAPHY_COLUMNS = ["kind", "d", "intercept", "x_min", "x_max",
                     "s", "chi", "c1sq", "deformation"]


class RunConfig(NamedTuple):
    seed: int
    trials: int
    prime: int


def _int_literal(text: str) -> int:
    """Integer in any Python base notation (42, 0xC0FFEE, 0o7, 0b101)."""
    return int(text, 0)


def _span(text: str) -> range:
    """\"3..5\" -> range(3, 6); a bare \"7\" means 7..7."""
    lo, sep, hi = text.partition("..")
    first = int(lo)
    last = int(hi) if sep else first
    if last < first:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(first, last + 1)


# ---------------------------------------------------------------------------
# runs of rows
# ---------------------------------------------------------------------------

class _Run:
    """`n` consecutive rows with the same keys, held column by column.

    `const` maps a key to the value of every row; `vary` maps a key to its
    n values, as a `range` (a stepped int), a list, or a pair `(fn, keys)`
    for a column whose cells are fn of the cells of the columns `keys`.
    A varying column holds an int, a str or None, never a bool.
    A dict in either is a nested group, its sub-keys mapped the same way:
    an object in json, the columns `key_sub` in csv and the table format.
    A record that is not stepped is a run of one row.
    """

    __slots__ = ("n", "const", "vary")

    def __init__(self, n: int, const: dict, vary: dict | None = None):
        self.n = n
        self.const = const
        self.vary = {} if vary is None else vary

    def column(self, key: str):
        """The key's n values; None in each row where the key is absent."""
        col = self.vary.get(key)
        if col is None:
            return repeat(self.const.get(key), self.n)
        if col.__class__ is tuple:
            fn, keys = col
            return map(fn, *map(self.column, keys))
        return iter(col)

    def first(self) -> dict:
        """The first row of a run without varying groups, as a record."""
        return {**self.const, **{k: next(self.column(k)) for k in self.vary}}

    def flat(self) -> _Run:
        """The run with each nested group's columns as columns `key_sub`."""
        return _Run(self.n, _flatten(self.const), _flatten(self.vary))


# ---------------------------------------------------------------------------
# output formatting: each format lays out a run's line template once and
# fills it in row by row by `%`, from the run's columns
# ---------------------------------------------------------------------------

def _plain(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_text(value) -> str:
    """_plain(value) as csv.writer writes it: quoted where it holds a comma,
    a quote or a line end."""
    text = _plain(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _flatten(record: dict) -> dict:
    flat = {}
    for key, value in record.items():
        if value.__class__ is dict:
            flat.update((f"{key}_{sub}", v) for sub, v in value.items())
        else:
            flat[key] = value
    return flat


def _derived(value):
    if value is None or value.__class__ is bool:
        raise AssertionError(f"a derived cell is {value!r}")
    return value


def _slot(run: _Run, key: str):
    """A varying column as its slot's `%` conversion and its values: "d" and
    the ints of a stepped or all-int column, "s" and the values of any other.
    It fails on a bool (which `%d` writes as 1) or a derived None."""
    col = run.vary[key]
    if col.__class__ is tuple:
        return "s", map(_derived, run.column(key))
    if col.__class__ is _Rendered:
        return "s", col
    kinds = set(map(type, col)) if col.__class__ is list else {int}
    if bool in kinds:
        raise AssertionError(f"{key} varies over bools")
    return ("d" if kinds == {int} else "s"), col


# Rows per write to stdout: one write per row would be one system call per
# row when stdout is unbuffered (PYTHONUNBUFFERED).
CHUNK_ROWS = 256

# The separator of the items of a flat row as one element of an indented
# JSON array: each key on its own line.  No flat value's text holds a
# newline, so _ITEM splits an encoded flat dict or list into its items.
_ITEM = ",\n    "


@cache
def _flat_row():
    """The C encoder (json.dumps with `indent` runs the pure-Python one) of
    a flat row as one element of an indented JSON array, each key on its
    own line; _object adds the braces' lines.  Built on first json use,
    so that csv and table output never import json."""
    import json
    return json.JSONEncoder(sort_keys=True, separators=(_ITEM, ": "))


def _chunks(items):
    """Lists of up to CHUNK_ROWS consecutive items."""
    items = iter(items)
    while chunk := list(islice(items, CHUNK_ROWS)):
        yield chunk


class _Rendered:
    """A derived column's cells rendered once, as `_plain` text, and held a
    chunk of CHUNK_ROWS cells to a string: a long run's cells then cost
    their characters, not an object each."""

    __slots__ = ("chunks",)

    def __init__(self, values):
        self.chunks = []
        for chunk in _chunks(map(_plain, map(_derived, values))):
            text = "\n".join(chunk)
            if text.count("\n") != len(chunk) - 1:
                raise AssertionError("a derived cell holds a line end")
            self.chunks.append(text)

    def __iter__(self):
        return chain.from_iterable(text.split("\n") for text in self.chunks)


def _encoded(values):
    """The C encoder's text of each value, a chunk of values at a time."""
    encode = _flat_row().encode
    for chunk in _chunks(values):
        yield from encode(chunk)[1:-1].split(_ITEM)


def _object(run: _Run, pad: str):
    """The `%` template of the run's rows as JSON objects whose members
    each start a line `pad` (a line end and an indent), and the values of
    its slots in template order.  Every member is in the encoder's (sorted)
    key order: a constant one as text, a varying one as a slot, a nested
    group as an object of its own, one indent deeper."""
    encode = _flat_row().encode
    const = {k: v for k, v in run.const.items() if v.__class__ is not dict}
    items = dict(zip(sorted(const), encode(const)[1:-1]
                     .replace("%", "%%").split(_ITEM))) if const else {}
    slots = {}
    for key in {*run.const, *run.vary} - const.keys():
        col = run.vary.get(key)
        if col is None or col.__class__ is dict:   # a nested group
            group = _Run(run.n, run.const.get(key, {}), col or {})
            text, slots[key] = _object(group, pad + "  ")
        else:
            kind, values = _slot(run, key)
            text = "%" + kind
            slots[key] = [values if kind == "d" else _encoded(values)]
        items[key] = encode(key).replace("%", "%%") + ": " + text
    text = ("," + pad).join(map(items.get, sorted(items)))
    return ("{" + pad + text + pad[:-2] + "}" if items else "{}",
            [values for key in sorted(slots) for values in slots[key]])


def _json_lines(run: _Run):
    """Each row of the run as an element of a JSON array with two-space
    indents and sorted keys, without the comma."""
    template, slots = _object(run, _ITEM[1:])
    return map(("  " + template).__mod__,
               zip(*slots) if slots else repeat((), run.n))


def _write_json_array(out, rows: Rows) -> None:
    """Write the rows as one JSON array, a chunk of rows at a time, and
    flush `out` after each part of the rows."""
    sep = "[\n"
    for part in rows.parts():
        for chunk in _chunks(chain.from_iterable(map(_json_lines, part))):
            out.write(sep + ",\n".join(chunk))
            sep = ",\n"
        out.flush()
    out.write("[]" if sep == "[\n" else "\n]")


def _widths(rows: Rows, columns: list[str]) -> tuple[list[_Run], list[int]]:
    """The table format's one pass over the rows: every run, flat and with
    each derived column rendered (`_Rendered`), and the column widths.  A
    run's constant cells are rendered once and its int columns read at
    their ends; only its other varying cells are rendered one by one."""
    runs, widths = [], list(map(len, columns))
    for run in map(_Run.flat, rows):
        run.vary.update({key: _Rendered(run.column(key))
                         for key, col in run.vary.items()
                         if col.__class__ is tuple})
        runs.append(run)
        for i, key in enumerate(columns):
            kind, cells = (_slot(run, key) if key in run.vary
                           else ("s", (run.const.get(key),)))
            if kind == "d":
                cells = ((cells[0], cells[-1]) if cells.__class__ is range
                         else (min(cells), max(cells)))
            widths[i] = max(widths[i], max(map(len, map(_plain, cells))))
    return runs, widths


def _lines(run: _Run, columns: list[str], text, sep: str, widths):
    """The flat run's csv or table-format lines, without line ends, each
    cell `text` of its value padded to its width.  The run's line template
    is laid out once: a constant cell in it, a slot for a varying one."""
    cells, slots = [], []
    for key, width in zip(columns, widths):
        if key in run.vary:
            kind, values = _slot(run, key)
            cells.append(f"%-{width}{kind}")
            slots.append(values if kind == "d" else map(text, values))
        else:
            cells.append(text(run.const.get(key)).ljust(width).replace("%", "%%"))
    return map(sep.join(cells).__mod__,
               zip(*slots) if slots else repeat((), run.n))


def emit(rows: Rows, columns: list[str], fmt: str, single: bool = False) -> None:
    """Write `rows` to stdout, a chunk of rows at a time; every format lays
    out a run's line template once and fills it in row by row.

    Every format makes one pass over `rows`.  csv and json write each part
    of `rows` and flush stdout before the next part is made; the table
    format holds every run, since its column widths need every row.  With
    `single`, only the first row is written (in csv, every row).
    """
    out = sys.stdout
    if single and fmt != "csv":
        record = list(rows)[0].first()   # the whole pass
        if fmt == "json":
            out.write(_object(_Run(1, record), "\n  ")[0] % () + "\n")
            return
        width = max(map(len, columns))
        out.write("".join(f"{c:<{width}}  {_plain(record.get(c))}".rstrip()
                          + "\n" for c in columns))
        return
    if fmt == "json":
        _write_json_array(out, rows)
        out.write("\n")
        return
    if fmt == "csv":   # a width of 0 pads nothing
        text, sep, eol, widths = _csv_text, ",", "\r\n", [0] * len(columns)
        parts = (map(_Run.flat, part) for part in rows.parts())
    else:
        text, sep, eol = _plain, "  ", "\n"
        runs, widths = _widths(rows, columns)
        parts = [runs]
    head = [sep.join(map(text, map(str.ljust, columns, widths)))]
    for part in parts:
        lines = chain.from_iterable(_lines(run, columns, text, sep, widths)
                                    for run in part)
        for chunk in _chunks(chain(head, lines)):
            out.write(eol.join(chunk if fmt == "csv" else map(str.rstrip, chunk))
                      + eol)
        head = []
        out.flush()


# ---------------------------------------------------------------------------
# record builders
# ---------------------------------------------------------------------------

def _flag(expected, measured) -> str | None:
    """MATCH or MISMATCH of a measurement against its prediction; None
    where there is no prediction."""
    if expected is None:
        return None
    return "MATCH" if measured == expected else "MISMATCH"


def _alpha_measurements(d: int, s_values, config: RunConfig) -> list[dict]:
    """Multiplication-map rank at (d, s) for each s, flagged against the
    zone verdict; the keys are the measurement fields of an `oracle alpha`
    row.  One alpha_rank call measures the whole column."""
    from . import fatpoints

    triples = fatpoints.alpha_rank(d, s_values, trials=config.trials,
                                   seed=config.seed, p=config.prime)
    out = []
    for s, (rank, dim_source, dim_target) in zip(s_values, triples):
        surjective = rank == dim_target
        formula = alpha_surjective(BlowupPair(d, s))
        expected = None if formula is TriState.UNKNOWN else formula is TriState.YES
        out.append({
            "rank": rank, "dim_source": dim_source, "dim_target": dim_target,
            "coker": dim_target - rank, "surjective_formula": formula.value,
            "surjective_measured": "yes" if surjective else "no",
            "flag": _flag(expected, surjective)})
    return out


def classification_record(pair: BlowupPair) -> dict:
    """Full closed-form row for one pair."""
    from .invariants import (cover_invariants, moduli_dim_degree2,
                             moduli_dims_degree1)

    rec = classify(pair)
    row = {
        "d": pair.d, "s": pair.s,
        "very_ample": rec.very_ample.value,
        "smooth_cover": rec.smooth_cover.value,
        "alpha_surjective": rec.alpha_surjective.value,
        "ext1_nonzero": rec.ext1_nonzero.value,
        "deformation": rec.deformation.value,
        "rule": zone_rule(pair),
    }
    if rec.smooth_cover is TriState.YES:
        inv = cover_invariants(pair)
        row.update(inv._asdict(), slope=_ratio_text(inv.c1sq, inv.c2))
    else:
        row.update(p_g=None, q=None, chi=None, c1sq=None, c2=None, slope=None)
    if rec.deformation is DeformationClass.DEGREE1:
        row.update(moduli_dims_degree1(pair)._asdict())
    elif rec.deformation is DeformationClass.DEGREE2_ALWAYS:
        row.update(mu=moduli_dim_degree2(pair), mu2=None, codim=None)
    else:
        row.update(mu=None, mu2=None, codim=None)
    return row


def _point_record(d: int, s: int) -> dict:
    """The geography point of the cover (d, s), which must exist."""
    from .invariants import cover_invariants

    pair = BlowupPair(d, s)
    inv = cover_invariants(pair)
    return {
        "kind": "point", "d": d, "intercept": None,
        "x_min": None, "x_max": None,
        "s": s, "chi": inv.chi, "c1sq": inv.c1sq,
        "deformation": deformation_class(pair).value,
    }


def h0_prediction(system) -> int | None:
    """`system.expected_h0` where it is known to be h0: r = 1, the reference
    system (12, 3, 14), and the branch system (2d+6, 4, s) of each cover
    (d, s) that exists, where h0 is `invariants.h0_normal_of_cover` + 1;
    None elsewhere."""
    k, r, s = system
    if r == 1 or system == (12, 3, 14) or (
            r == 4 and k >= 10 and k % 2 == 0 and smooth_cover_exists(
                BlowupPair(k // 2 - 3, s)) is TriState.YES):
        return system.expected_h0
    return None


def measurement_record(which: str, k: int, r: int, s: int,
                       config: RunConfig) -> dict:
    """One h0 measurement; h1 is the same row shifted by the Euler
    characteristic chi = ambient_dim - conditions, since h1 = h0 - chi."""
    from . import fatpoints

    system = fatpoints.FatPointSystem(k, r, s)
    measured = fatpoints.h0_fatpoints(
        system, trials=config.trials, seed=config.seed, p=config.prime)
    expected = h0_prediction(system)
    virtual = system.expected_h0
    if which == "h1":
        chi = system.ambient_dim - system.conditions
        measured -= chi
        expected = None if expected is None else expected - chi
        virtual -= chi   # max(chi, 0) - chi = max(-chi, 0)
    return {
        "k": k, "r": r, "s": s, **config._asdict(),
        "measured": measured, "virtual": virtual,
        "defect": measured - virtual, "expected": expected,
        "flag": _flag(expected, measured),
    }


def alpha_record(d: int, s: int, config: RunConfig) -> dict:
    return {"d": d, "s": s, **config._asdict(),
            **_alpha_measurements(d, [s], config)[0]}


# ---------------------------------------------------------------------------
# planned rows
# ---------------------------------------------------------------------------

class Rows:
    """A command's rows as `_Run`s, made part by part as they are written.

    The command that returns them has decided every input error already.
    A pass makes the parts in turn, `part(key)` for each of `keys`, each a
    list of runs; a part may do work there (a table plans one `d`'s runs,
    and with the oracle measures its column), and `emit` makes one pass and
    flushes each part's rows before it makes the next, so that the work
    reaches the reader part by part.  The pass is the one source of the
    row count and the MISMATCH flag: it sets `mismatch` when a run's
    `flag` or `oracle_flag` cells hold MISMATCH, final once it has made
    the last part, and `len` is the row count of the last full pass (a
    TypeError before one, so `list(rows)` makes just the one pass).  A
    run holds its columns, not its rows: the rows are rendered from them
    as they are written, so that no pass holds them all.
    """

    def __init__(self, part, keys=(None,)):
        self._part = part
        self._keys = keys
        self.mismatch = False
        self._count = None

    def __len__(self) -> int:
        if self._count is None:
            raise TypeError("rows have no length before a full pass")
        return self._count

    def parts(self):
        """Each part's runs, in order; a part is made when it is reached."""
        count = 0
        for key in self._keys:
            runs = self._part(key)
            for run in runs:
                count += run.n
                for flag in ("flag", "oracle_flag"):
                    if flag in run.const or flag in run.vary:
                        self.mismatch |= "MISMATCH" in run.column(flag)
            yield runs
        self._count = count

    def __iter__(self):
        return chain.from_iterable(self.parts())

    @classmethod
    def of(cls, rows: list[dict]) -> Rows:
        """Rows already built, a run of one row each."""
        runs = [_Run(1, row) for row in rows]
        return cls(lambda _: runs)


def _stepped_run(record_at, run: range, derived: dict) -> _Run:
    """The records of one run of s (`classify.s_runs`), from three calls.

    `record_at(s)` is called at the run's first s and, if it has one, its
    second: every int field then steps by their difference (`s` included),
    and every other field must stay the same.  A field of `derived`, keyed
    to `(fn, source keys)`, is fn of its sources cell by cell where one of
    them steps.  A third call at the last s checks the stepping, so a
    missing cut cannot pass unseen.
    """
    first = record_at(run.start)
    n = len(run)
    if n == 1:
        return _Run(1, first)
    second = record_at(run.start + 1)
    const, vary = {}, {}
    for key, value in first.items():
        if key in derived:
            continue
        other = second[key]
        if other == value:
            const[key] = value
        elif type(value) is int and type(other) is int:
            step = other - value
            vary[key] = range(value, value + n * step, step)
        else:
            raise AssertionError(
                f"{key} changes inside the run {run} of {first}")
    last = {key: col[-1] for key, col in vary.items()}
    for key, (fn, sources) in derived.items():
        if any(source in vary for source in sources):
            vary[key] = fn, sources
            last[key] = fn(*(last.get(k, const.get(k)) for k in sources))
        else:
            const[key] = first[key]
    if n > 2 and {**const, **last} != record_at(run[-1]):
        raise AssertionError(f"the run {run} of {first} is not affine in s")
    return _Run(n, const, vary)


def _classification_rows(d_values, s_values: range, config: RunConfig,
                         with_oracle: bool) -> tuple[Rows, list[str]]:
    """Rows by (d, s), a part for each d, stepped along the d's runs of s.

    Every input error is decided here, from the ranges: their first values
    bound every pair, and with the oracle every column passes alpha_rank's
    checks.  A part plans its d's runs and, with the oracle, measures its
    column, each run taking its slice of the measurements."""
    BlowupPair(d_values[0], s_values[0])
    if with_oracle:
        from .fatpoints import _alpha_floors
        for d in d_values:
            _alpha_floors(d, s_values, config.trials)
    # the slope c1sq/c2 of a row, derived cell by cell along a run
    # (SurfaceInvariants.slope as text)
    derived = {"slope": (_ratio_text, ("c1sq", "c2"))}

    def part(d):
        def record_at(s):
            return classification_record(BlowupPair(d, s))
        runs = [_stepped_run(record_at, run, derived)
                for run in s_runs(d, s_values)]
        if not with_oracle:
            return runs
        alphas = _alpha_measurements(d, s_values, config)
        columns = {f"alpha_{key}": [alpha[key] for alpha in alphas]
                   for key in ("rank", "dim_source", "dim_target", "coker")}
        columns["oracle_flag"] = [alpha["flag"] for alpha in alphas]
        start = 0
        for run in runs:
            run.vary.update((key, col[start:start + run.n])
                            for key, col in columns.items())
            start += run.n
        return runs

    return (Rows(part, d_values),
            CLASSIFY_ORACLE_COLUMNS if with_oracle else CLASSIFY_COLUMNS)


# ---------------------------------------------------------------------------
# subcommands: each returns (rows, columns) and writes nothing to stdout
# ---------------------------------------------------------------------------

def cmd_classify(args, config: RunConfig) -> tuple[Rows, list[str]]:
    return _classification_rows([args.d], range(args.s, args.s + 1), config,
                                args.oracle)


def cmd_table(args, config: RunConfig) -> tuple[Rows, list[str]]:
    return _classification_rows(args.d_range, args.s_range, config, args.oracle)


def cmd_oracle(args, config: RunConfig) -> tuple[Rows, list[str]]:
    if args.which == "alpha":
        return Rows.of([alpha_record(args.d, args.s, config)]), ALPHA_COLUMNS
    row = measurement_record(args.which, args.k, args.r, args.s, config)
    return Rows.of([row]), H_COLUMNS


def cmd_xi(args, config: RunConfig) -> tuple[Rows, list[str]]:
    from .atlas import ScrollWitness, two_component_points

    result = two_component_points(args.m, args.dmax)
    certified = args.m <= 17
    notes = []
    if not certified:
        notes.append(f"note: m={args.m} is outside the certified window "
                     "(m <= 17); rows are best-effort and marked "
                     "certified=false\n")
    notes.extend(f"note: (d={miss.d}, s={miss.s}) with invariants "
                 f"({miss.x_prime}, {miss.y}) lies on the line for m={args.m} "
                 f"but no divisor of this line's class realizes it: "
                 f"{miss.reason}\n" for miss in result.unwitnessed)
    sys.stderr.write("".join(notes))
    # one run of every point, the witness a nested group of int columns
    x_prime, y, _, d, s, witness = list(zip(*result.points)) or [()] * 6
    run = _Run(len(x_prime), {"m": args.m, "certified": certified}, {
        "x_prime": list(x_prime), "y": list(y), "d": list(d), "s": list(s),
        "scroll_witness": dict(zip(ScrollWitness._fields,
                                   map(list, zip(*witness))))})
    return Rows(lambda _: [run] if run.n else []), XI_COLUMNS


def cmd_geography(args, config: RunConfig) -> tuple[Rows, list[str]]:
    from .atlas import geography_lines

    lines = [_Run(1, {"kind": "line", **line._asdict(),
                      "s": None, "chi": None, "c1sq": None, "deformation": None})
             for line in geography_lines(args.d_range)]
    points = []
    for d in args.d_range:
        points.extend(_stepped_run(partial(_point_record, d), run, {})
                      for run in s_runs(d, range(1, zones(d).cover_yes_max + 1)))
    return Rows(lambda _: lines + points), GEOGRAPHY_COLUMNS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_run_options(parser: argparse.ArgumentParser, top: bool) -> None:
    # Registered on the top-level parser with real defaults and on every
    # subparser with SUPPRESS, so the flags work on either side of the
    # subcommand name and the subcommand position wins.
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--seed", type=_int_literal, default=d(None),
                        help="RNG seed (any base; default env CANGEO_SEED, "
                             "then 0xC0FFEE)")
    parser.add_argument("--trials", type=int, default=d(DEFAULT_TRIALS),
                        help="independent point configurations per oracle call "
                             f"(at most {MAX_TRIALS})")
    parser.add_argument("--prime", type=int, default=d(DEFAULT_PRIME),
                        help="field modulus, a prime p with 10^6 < p <= "
                             "3037000499 (where int64 products of residues "
                             "stay exact)")
    parser.add_argument("--format", choices=("json", "csv", "table"),
                        default=d("table"), dest="output_format",
                        help="stdout format")
    parser.add_argument("--oracle", action="store_true", default=d(False),
                        help="cross-check classification rows against the "
                             "finite-field oracle (classify/table)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cangeo", description="Invariants, deformation classes and "
        "geography of canonical degree-2 covers of blown-up planes.")
    _add_run_options(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("classify", help="classify a single (d, s) pair")
    p.add_argument("d", type=int, help="branch curve half-degree, >= 2")
    p.add_argument("s", type=int, help="number of blown-up points, >= 1")

    p = sub.add_parser("table", help="classify a rectangle of (d, s) pairs")
    p.add_argument("--d", dest="d_range", type=_span, required=True,
                   metavar="A..B", help="degree range, e.g. 3..5")
    p.add_argument("--s", dest="s_range", type=_span, required=True,
                   metavar="A..B", help="point-count range, e.g. 1..14")

    p = sub.add_parser("oracle", help="run a finite-field measurement")
    p.add_argument("which", choices=("h0", "h1", "alpha"),
                   help="quantity to measure")
    p.add_argument("--k", type=int, help="curve degree (h0/h1)")
    p.add_argument("--r", type=int, help="vanishing multiplicity (h0/h1)")
    p.add_argument("--d", type=int, help="cover degree parameter (alpha)")
    p.add_argument("--s", type=int, required=True, help="number of points")

    p = sub.add_parser("xi", help="enumerate two-component invariant pairs")
    p.add_argument("--m", type=int, required=True, help="line index, >= 4")
    p.add_argument("--dmax", type=int, required=True,
                   help="largest cover degree to scan, >= 2")

    p = sub.add_parser("geography", help="emit line and point data for the "
                                         "(chi, c1^2) plane")
    p.add_argument("--d", dest="d_range", type=_span, required=True,
                   metavar="A..B", help="degree range, e.g. 2..6")
    for p in sub.choices.values():
        _add_run_options(p, top=False)
    return parser


def _resolve_config(parser: argparse.ArgumentParser, args) -> RunConfig:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("CANGEO_SEED")
        try:
            seed = DEFAULT_SEED if raw is None else _int_literal(raw)
        except ValueError:
            parser.error(f"CANGEO_SEED is not an integer: {raw!r}")
    if seed < 0:
        parser.error("seed must be nonnegative")
    if args.trials < 1:
        parser.error("trials must be at least 1")
    if args.trials > MAX_TRIALS:
        parser.error(f"trials must be at most {MAX_TRIALS}")
    if not MIN_PRIME < args.prime <= MAX_PRIME or not _is_prime(args.prime):
        parser.error(f"prime must be a prime p with {MIN_PRIME} < p <= "
                     f"{MAX_PRIME}")
    return RunConfig(seed=seed, trials=args.trials, prime=args.prime)


COMMANDS = {
    "classify": cmd_classify,
    "table": cmd_table,
    "oracle": cmd_oracle,
    "xi": cmd_xi,
    "geography": cmd_geography,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Ranges are checked where the values are used (BlowupPair,
    # FatPointSystem, alpha_rank, atlas); only a missing option is an
    # argument error here.
    if args.command == "oracle":
        if args.which == "alpha" and args.d is None:
            parser.error("oracle alpha needs --d")
        if args.which != "alpha" and (args.k is None or args.r is None):
            parser.error(f"oracle {args.which} needs --k and --r")
    config = _resolve_config(parser, args)
    try:
        rows, columns = COMMANDS[args.command](args, config)
    except ValueError as exc:
        # nothing has been written yet, so stdout stays empty on exit 2
        parser.error(str(exc))
    # a table plans (and with the oracle measures) each d here, as emit
    # writes it
    try:
        emit(rows, columns, args.output_format,
             single=args.command in ("classify", "oracle"))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point the descriptor at devnull so the
        # interpreter's final flush of the buffered rest cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED
    return EXIT_MISMATCH if rows.mismatch else EXIT_OK


def run():
    """Process entry point: main() on sys.argv, then end the process.

    Before main() runs, and so before any command loads numpy, the
    process's OpenBLAS is told to let its idle worker thread sleep after
    2^16 spin cycles instead of its own 2^28, unless the caller has set
    OPENBLAS_THREAD_TIMEOUT already.  The thread count stays OpenBLAS's,
    and every reading is exact whatever the threading.  main(argv) and
    the package's imports leave the environment alone, for callers in
    the same process.

    Once stdout and stderr are flushed nothing is left to do, so the
    process ends with os._exit and skips the interpreter's teardown (the
    final collection, module cleanup and the BLAS library's shutdown),
    none of which the output needs.  SystemExit (bad input, exit 2) and an
    uncaught exception take the normal exit path.
    """
    # At 2^28 cycles (about 0.1 s) the idle worker spins on the second core
    # after numpy loads and after every product: a third of an oracle
    # process's CPU time.  On a 2-core guest, 2^8..2^16 tied for the least
    # CPU with wall time no worse than at 2^28, also on the 1500x1653
    # systems whose products keep both threads; from 2^20 up the spin
    # between panel products cost CPU again, and at 2^4 the h0 ladder's
    # wall time rose.  2^16 (about 26 us at 2.5 GHz) is the longest of the
    # tied values, the nearest to OpenBLAS's own policy.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
