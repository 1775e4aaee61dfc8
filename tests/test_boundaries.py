"""Mutated input files fail cleanly at every boundary.

Each property mutates one kind of input a run reads: the bytes of a saved
W4 ``.mps`` state (read by ``virtual --model``), the lines of a
``history.csv`` (``fit``), the text of a config file (``tomo --config``)
and the lines of a shot record (``Dataset.from_file``).  The history,
config and shot files may also get raw byte edits, so they need not stay
UTF-8.  The CLI may only exit 0, 2 or 3, and never exits 0 with a
non-finite field in a ``history.csv`` it wrote; ``Dataset.from_file`` may
only raise FormatError or ParameterError, and must agree with a reference
reader that parses the file line by line: bit-identical arrays, or the
same exception type and message.  Examples are derandomized so that the
suite stays deterministic.  A file that is not UTF-8 raises FormatError in
each of the three text readers.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mpstomo import Dataset, FormatError, ParameterError, load_config, w_state
from mpstomo.cli import main
from mpstomo.errors import utf8_lines
from mpstomo.runner import read_history

# a W4 protocol small enough for tens of runs in a few seconds
CONFIG = """\
target.kind = w
target.n = 4
target.theta = 0.1
fidelity_threshold = 0.9
batch_initial = 20
max_replicas = 150
train.d_cap = 4
train.sweeps_per_stage = 4
train.eta_noise = 1.0
"""

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# field values at the edges of what the parsers accept
_ODD_VALUES = st.sampled_from(
    ["", "nan", "inf", "-inf", "1e309", "-1", "0", "-0.0", "1e-320", "2", "3",
     "99999999999999999999", "0x10", "1_0", "true", " ", "a,b", "1;2", "١"]
)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


@st.composite
def _byte_edits(draw, raw):
    """``raw`` with one to three byte overwrites, cuts or insertions."""
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["set", "cut", "insert"]))
        if kind == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif kind == "cut":
            del data[pos : pos + draw(st.integers(1, 16))]
        else:
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


@st.composite
def _line_edits(draw, lines, sep):
    """``lines`` with one to three lines dropped, duplicated, replaced by
    arbitrary text, or with one ``sep``-separated field set to an odd value."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "dup", "text", "field", "field"]))
        if kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "text":
            lines[i] = draw(_TEXT)
        else:
            parts = lines[i].split(sep)
            j = draw(st.integers(0, len(parts) - 1))
            parts[j] = draw(_ODD_VALUES)
            lines[i] = sep.join(parts)
    return lines


def _text_file(data, path, lines):
    """Write ``lines`` to ``path``, sometimes with raw byte edits on top."""
    raw = ("\n".join(lines) + "\n").encode()
    if data.draw(st.booleans()):
        raw = data.draw(_byte_edits(raw))
    path.write_bytes(raw)


def _assert_finite_history(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    for row in rows[1:]:
        for raw in row:
            assert raw == "" or math.isfinite(float(raw)), f"{path}: {row}"


@pytest.fixture(scope="module")
def w4_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("w4")
    cfg = root / "exp.cfg"
    cfg.write_text(CONFIG + "stop_on_threshold = false\n")
    assert main(["tomo", "--config", str(cfg), "--seed", "4", "--out", str(root / "run")]) == 0
    w_state(4, 0.1).save(root / "w4.mps")
    return root


@_SETTINGS
@given(data=st.data())
def test_mutated_model_virtual(w4_run, tmp_path_factory, data):
    raw = (w4_run / "w4.mps").read_bytes()
    work = tmp_path_factory.mktemp("mps")
    model = work / "model.mps"
    model.write_bytes(data.draw(_byte_edits(raw)))
    cfg = work / "exp.cfg"
    cfg.write_text(CONFIG)
    rc = main([
        "virtual", "--model", str(model), "--config", str(cfg),
        "--runs", "1", "--seed", "9", "--out", str(work / "virt"),
    ])
    assert rc in (0, 2, 3)
    if rc == 0:
        _assert_finite_history(work / "virt" / "virtual_00" / "history.csv")


@_SETTINGS
@given(data=st.data())
def test_mutated_history_fit(w4_run, tmp_path_factory, data):
    lines = (w4_run / "run" / "history.csv").read_text().splitlines()
    path = tmp_path_factory.mktemp("fit") / "history.csv"
    _text_file(data, path, data.draw(_line_edits(lines, ",")))
    field = data.draw(st.sampled_from(["r_real", "r_succ"]))
    assert main(["fit", "--history", str(path), "--field", field]) in (0, 2, 3)


def _stage_count(cfg) -> int:
    """Stages run_tomography would run at most under ``cfg``."""
    total, batch, stages = 0, cfg.batch_initial, 0
    while total < cfg.max_replicas and stages < 100:
        total += min(batch, cfg.max_replicas - total)
        batch = max(1, int(round(min(batch * cfg.batch_growth, cfg.max_replicas))))
        if cfg.batch_max > 0:
            batch = min(batch, cfg.batch_max)
        stages += 1
    return stages


def _small_enough(path) -> bool:
    """Whether the config parses to a run no larger than a few seconds; a
    config that does not load is always run, since it must exit 2."""
    try:
        cfg = load_config(path)
        spec = cfg.target
        n = getattr(spec, "n_sites", 0)
        return (
            n <= 6 and getattr(spec, "d_max", 1) <= 8 and cfg.train.d_cap <= 8
            and cfg.train.sweeps_per_stage <= 8 and 0 < cfg.max_replicas <= 400
            and cfg.batch_initial >= 1 and cfg.batch_growth >= 1.0
            and _stage_count(cfg) <= 8
        )
    except ParameterError:
        return True


@_SETTINGS
@given(data=st.data())
def test_mutated_config_tomo(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("cfg")
    cfg = work / "exp.cfg"
    _text_file(data, cfg, data.draw(_line_edits(CONFIG.splitlines(), "=")))
    assume(_small_enough(cfg))
    rc = main(["tomo", "--config", str(cfg), "--seed", "4", "--out", str(work / "run")])
    assert rc in (0, 2, 3)
    if rc == 0:
        _assert_finite_history(work / "run" / "history.csv")


def _reference_from_file(path, local_dim) -> Dataset:
    """The shot-file reader as a plain line-by-line loop: each line is split
    and converted on its own, and the checks run on the whole file."""
    rows, line_numbers = [], []
    for ln, line in enumerate(utf8_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        triples = [fld.split(",") for fld in line.split(";")]
        if any(len(t) != 3 for t in triples):
            raise FormatError(f"{path}: line {ln}: every site field must be theta,phi,2m")
        try:
            th = [float(t[0]) for t in triples]
            ph = [float(t[1]) for t in triples]
            tm = [int(t[2]) for t in triples]
        except ValueError as exc:
            raise FormatError(f"{path}: line {ln}: {exc}") from exc
        if rows and len(tm) != len(rows[0][2]):
            raise FormatError(f"{path}: line {ln}: {len(tm)} sites, expected {len(rows[0][2])}")
        rows.append((th, ph, tm))
        line_numbers.append(ln)
    if not rows:
        raise FormatError(f"{path}: no shots")
    thetas = np.array([r[0] for r in rows])
    phis = np.array([r[1] for r in rows])
    twice_m = np.array([r[2] for r in rows])
    offset = (local_dim - 1) - twice_m

    def require(ok, what):
        bad = np.flatnonzero(~ok.all(axis=1))
        if bad.size:
            raise FormatError(f"{path}: line {line_numbers[bad[0]]}: {what}")

    require(np.isfinite(thetas) & np.isfinite(phis), "non-finite angle")
    require((thetas >= 0) & (thetas <= np.pi), "theta out of [0, pi]")
    require((phis >= 0) & (phis < 2 * np.pi), "phi out of [0, 2 pi)")
    require(offset % 2 == 0, f"2m must have the parity of q - 1 = {local_dim - 1}")
    require((offset >= 0) & (offset <= 2 * (local_dim - 1)),
            f"outcome out of range for q={local_dim}")
    ds = Dataset(thetas.shape[1], local_dim)
    ds.extend_raw(thetas, phis, offset // 2)
    return ds


def _read_outcome(read, path, local_dim):
    """The arrays ``read`` returns, bit for bit, or its error type and text."""
    try:
        ds = read(path, local_dim)
    except (FormatError, ParameterError) as exc:
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in (ds.thetas, ds.phis, ds.outcome_indices)]


def _assert_reads_like_reference(path, local_dim):
    expected = _read_outcome(_reference_from_file, path, local_dim)
    assert _read_outcome(Dataset.from_file, path, local_dim) == expected
    return expected


@_SETTINGS
@given(data=st.data(), local_dim=st.integers(1, 3))
def test_mutated_shots_from_file(w4_run, tmp_path_factory, data, local_dim):
    lines = (w4_run / "run" / "shots.txt").read_text().splitlines()[:12]
    sep = data.draw(st.sampled_from([";", ","]))
    path = tmp_path_factory.mktemp("shots") / "shots.txt"
    _text_file(data, path, data.draw(_line_edits(lines, sep)))
    _assert_reads_like_reference(path, local_dim)


def _set_field(line, site, k, value):
    sites = [s.split(",") for s in line.split(";")]
    sites[site][k] = value
    return ";".join(",".join(s) for s in sites)


def _long_shot_file(w4_run, count=6000):
    """``count`` W4 shot lines, lines 100 and 2500 blank."""
    shots = (w4_run / "run" / "shots.txt").read_text().splitlines()
    lines = [shots[i % len(shots)] for i in range(count)]
    lines[99] = lines[2499] = ""
    return lines


# a bad line 5000 of a 6000-line file lies past the reader's first blocks
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda line: line, None),
        (lambda line: _set_field(line, 1, 1, "zz"), "could not convert string to float: 'zz'"),
        (lambda line: _set_field(line, 2, 2, "1.0"), "invalid literal for int() with base 10: '1.0'"),
        (lambda line: line.rsplit(";", 1)[0], "3 sites, expected 4"),
        (lambda line: line + ",7", "every site field must be theta,phi,2m"),
        (lambda line: _set_field(line, 0, 0, "nan"), "non-finite angle"),
        (lambda line: _set_field(line, 3, 1, "7"), r"phi out of [0, 2 pi)"),
        (lambda line: _set_field(line, 0, 2, "0"), "2m must have the parity of q - 1 = 1"),
        (lambda line: _set_field(line, 0, 2, "3"), "outcome out of range for q=2"),
        (lambda line: _set_field(line, 0, 2, "99999999999999999999"), "outcome out of range for q=2"),
    ],
    ids=["valid", "float", "int", "sites", "fields", "nan", "phi", "parity", "range", "huge-int"],
)
def test_bad_line_past_the_first_block(w4_run, tmp_path, edit, message):
    lines = _long_shot_file(w4_run)
    lines[4999] = edit(lines[4999])
    path = tmp_path / "shots.txt"
    path.write_text("\n".join(lines) + "\n")
    outcome = _assert_reads_like_reference(path, 2)
    if message is None:
        assert outcome[0][1] == (5998, 4)
    else:
        assert outcome == (FormatError, f"{path}: line 5000: {message}")


@pytest.mark.parametrize("byte_line, expected_line", [(5500, 5000), (5000, 5000), (3000, 3000)])
def test_bad_line_and_bad_byte_past_the_first_block(w4_run, tmp_path, byte_line, expected_line):
    lines = [line.encode() for line in _long_shot_file(w4_run)]
    lines[4999] = lines[4999] + b",7"
    lines[byte_line - 1] = b"\xff" + lines[byte_line - 1]
    path = tmp_path / "shots.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    kind, message = _assert_reads_like_reference(path, 2)
    assert message.startswith(f"{path}: line {expected_line}: ")


# the reader sizes its arrays from a first block that parsed, and by the
# bytes a shot needs (6 N - 1 or more), so neither a wide line that does
# not parse nor blank lines after a wide shot multiply into lines x N
def test_wide_first_line_that_does_not_parse(tmp_path):
    path = tmp_path / "shots.txt"
    path.write_text(";" * 10**6 + "\n" * 10**5)
    outcome = _assert_reads_like_reference(path, 2)
    assert outcome == (FormatError, f"{path}: line 1: every site field must be theta,phi,2m")


def test_wide_shot_among_blank_lines(tmp_path):
    path = tmp_path / "shots.txt"
    path.write_text(";".join(["1.5,0.5,1"] * 200_000) + "\n" * 10**5)
    outcome = _assert_reads_like_reference(path, 2)
    assert outcome[0][1] == (1, 200_000)


@pytest.mark.parametrize(
    "name, read",
    [
        ("run/shots.txt", lambda path: Dataset.from_file(path, 2)),
        ("run/history.csv", read_history),
        ("exp.cfg", load_config),
    ],
    ids=["shots", "history", "config"],
)
def test_non_utf8_reader_names_line_and_byte(w4_run, tmp_path, name, read):
    lines = (w4_run / name).read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    path = tmp_path / "input"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError, match=f"{path}: line 2: byte {len(lines[0]) + 1}: not UTF-8"):
        read(path)
