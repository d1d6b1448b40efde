"""``repro.runtime.wire`` — the one owner of every worker/session layout.

Property round trips for each codec, the two structural pins behind
"one owner" (no pickle and no object-channel ``send``/``recv`` anywhere
under ``src/repro/runtime``; ``docs/formats.md``'s tables equal to the
tables in code), and typed rejection of ill-typed worker configs.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
import struct
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksContext, toy_params
from repro.ckks.serialization import WireFormatError
from repro.runtime import FaultAction, FaultPlan, wire
from repro.runtime.plan_io import CONSTSTORE_VERSION, PLAN_VERSION

ROOT = Path(__file__).resolve().parents[2]
RUNTIME = ROOT / "src" / "repro" / "runtime"

u32 = st.integers(0, 2**32 - 1)
u64 = st.integers(0, 2**64 - 1)
kinds = st.sampled_from(
    [wire.REQUEST, wire.OK, wire.ERR, wire.HEARTBEAT, wire.SHUTDOWN]
)
part = st.binary(max_size=64 << 10)


# ----------------------------------------------------------------------
# Worker message
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(kinds, u64, u32, st.lists(part, max_size=4))
def test_message_round_trip_and_peek(kind, req_id, attempt, parts):
    """0–4 parts of 0–64 KiB: the first is the trace part, the rest the
    blobs; an empty trace part decodes as untraced; the peeked header is
    the decoded one."""
    trace, blobs = (parts[0] or None, tuple(parts[1:])) if parts else (None, ())
    data = wire.encode_message(kind, req_id, attempt, blobs, trace)
    msg = wire.decode_message(data)
    assert msg == wire.Message(kind, req_id, attempt, blobs, trace)
    assert wire.peek_message(data)[:3] == (msg.kind, msg.req_id, msg.attempt)
    wire_parts = wire.peek_message(data)[3]
    assert wire_parts == (1 + len(blobs) if (blobs or trace) else 0)


def test_empty_trace_part_is_untraced():
    traced = wire.encode_message(wire.REQUEST, 1, 0, [b"x"], b"")
    untraced = wire.encode_message(wire.REQUEST, 1, 0, [b"x"], None)
    assert traced == untraced
    assert wire.decode_message(traced).trace is None
    # No blobs and no trace: a header-only message (heartbeat, shutdown).
    assert len(wire.encode_message(wire.HEARTBEAT, 9, 2)) == 15


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d[:14],  # shorter than the header
        lambda d: b"\x00" + d[1:],  # kind 0
        lambda d: b"\x06" + d[1:],  # kind 6
        lambda d: d[:-1],  # last part truncated
        lambda d: d + b"\x00",  # trailing byte
        lambda d: d[:1] + b"\xff\xff" + d[3:],  # part count past the data
    ],
)
def test_malformed_message_is_a_wire_format_error(mangle):
    data = wire.encode_message(wire.OK, 3, 1, [b"abc", b"defg"], b"trace")
    with pytest.raises(WireFormatError):
        wire.decode_message(mangle(data))


# ----------------------------------------------------------------------
# Session layouts
# ----------------------------------------------------------------------


@given(st.sampled_from(["up", "busy", "version"]), u32, u32)
def test_control_round_trip(op, a, b):
    payload = wire.encode_control(op, a, b)
    assert len(payload) == 9
    assert wire.decode_control(payload) == (op, a, b)


def test_control_rejects_unknown_op_and_wrong_length():
    # Codes 1, 2, 3 and 5 were v3's spawn, kill, bye and down: retired.
    retired = [bytes([code]) + b"\x00" * 8 for code in (1, 2, 3, 5)]
    wrong_length = (b"\x04" * 8, b"\x04" * 10)
    for bad in (b"\x00" * 9, b"\x08" + b"\x00" * 8, *wrong_length, *retired):
        with pytest.raises(WireFormatError):
            wire.decode_control(bad)


@given(st.booleans(), u32)
def test_ack_and_host_report_round_trip(need_plan, pid):
    assert wire.decode_ack(wire.encode_ack(need_plan, pid)) == (need_plan, pid)
    assert wire.decode_host_report(wire.encode_host_report(pid, 7)) == (pid, 7)


# ----------------------------------------------------------------------
# Worker config
# ----------------------------------------------------------------------

rate = st.floats(0.0, 0.15)
actions = st.none() | st.builds(
    FaultAction,
    st.sampled_from(["crash", "stop", "hang", "slow", "flip", "disconnect"]),
    st.sampled_from(wire.SITES),
    duration_s=st.floats(0.0, 5.0),
    salt=st.integers(0, 2**31),
)
fault_plans = st.builds(
    FaultPlan,
    st.integers(-(2**63), 2**63),
    crash_rate=rate,
    slow_rate=rate,
    reply_flip_rate=rate,
    disconnect_rate=rate,
    duplicate_rate=rate,
    hang_s=st.floats(0.0, 60.0),
    scripted=st.dictionaries(
        st.tuples(st.sampled_from(wire.SITES), st.integers(0, 99), st.integers(0, 9)),
        actions,
        max_size=4,
    ),
)


@pytest.fixture(scope="module")
def host_env():
    ctx = CkksContext.create(toy_params(degree=64, num_primes=3), seed=5)
    return wire.HostEnv(ctx.params, tuple(ctx.basis.primes)), ctx


@settings(max_examples=40, deadline=None)
@given(
    st.booleans(),
    st.none() | fault_plans,
    st.none() | st.floats(0.02, 1.0),
    st.booleans(),
)
def test_worker_config_round_trip(host_env, fused, chaos, heartbeat_s, with_env):
    env = host_env[0] if with_env else None
    cfg = wire.WorkerConfig(fused, chaos, heartbeat_s, env)
    back = wire.decode_worker_config(wire.encode_worker_config(cfg))
    assert back == cfg
    hello = wire.decode_hello(wire.encode_hello("sig-é", 2**64 - 1, cfg))
    assert hello == ("sig-é", 2**64 - 1, cfg)


def test_v2_hello_is_a_version_mismatch():
    """A version 2 hello — ``u16 version | u8 flags | u16 sig_len``, then
    a config with the two fields version 3 dropped — and a version 3 one
    — ``u16 version | u16 sig_len``, no session id — are refused on their
    first field, naming both versions, before the rest is read."""
    sig = b"sig"
    blob = b'{"coeff_bits":44,"io_s":0.0,"fused":true,"chaos":null,'
    blob += b'"heartbeat_s":null,"env":null}'
    v2 = struct.pack("<HBH", 2, 1, len(sig)) + sig + struct.pack("<I", len(blob))
    blob3 = b'{"fused":true,"chaos":null,"heartbeat_s":null,"env":null}'
    v3 = struct.pack("<HH", 3, len(sig)) + sig + struct.pack("<I", len(blob3))
    for hello, theirs in ((v2 + blob, 2), (v3 + blob3, 3)):
        with pytest.raises(wire.VersionMismatch) as err:
            wire.decode_hello(hello)
        assert (err.value.ours, err.value.theirs) == (4, theirs)
    assert wire.SUPPORTED_VERSIONS["session"] == (4,)


def test_rebuilt_host_env_builds_the_same_evaluator(host_env):
    env, ctx = host_env
    scripted = {
        ("host_relay", 2, 0): FaultAction("disconnect", "host_relay"),
        ("pre_evaluate", 0, 1): None,  # pinned "no fault"
    }
    cfg = wire.WorkerConfig(
        True, FaultPlan(7, crash_rate=0.1, scripted=scripted), 0.25, env
    )
    back = wire.decode_worker_config(wire.encode_worker_config(cfg))
    assert back.chaos == cfg.chaos and back.chaos.scripted == scripted
    assert back.env == env
    evaluator = back.env.build_evaluator()
    assert evaluator.params == ctx.params
    assert evaluator.basis.moduli == ctx.basis.moduli


HANG = {"kind": "hang", "site": "pre_evaluate", "duration_s": 1.0, "salt": 0}


@pytest.mark.parametrize(
    "edit",
    [
        lambda o: o.pop("fused"),  # missing key
        lambda o: o.update(extra=1),  # unknown key
        lambda o: o["chaos"].update(seed="1"),  # wrong type
        lambda o: o["chaos"].update(seed=True),  # bool is not an int
        lambda o: o.update(fused=1),  # int is not a bool
        lambda o: o["chaos"].update(crash_rate=1.5),  # FaultPlan rejects
        lambda o: o["chaos"].update(scripted=[[["pre_evaluate", 0], None]]),
        lambda o: o["chaos"].update(scripted=[[[0, 0, 0], None]]),
        lambda o: o["chaos"].update(scripted={"pre_evaluate": None}),
        lambda o: o["env"]["params"].update(degree=100),  # not a power of two
        lambda o: o["env"]["params"]["fp_format"].update(mantissa_bits=99),
        lambda o: o["env"]["primes"][0].update(k_terms=[[1]]),
        lambda o: o["env"].update(primes="nope"),
        # Periods and durations a sleeping thread cannot honour; the NaN
        # and Infinity rows reach the decoder as bare non-JSON tokens.
        lambda o: o.update(heartbeat_s=-5.0),  # Event.wait(-5) spins
        lambda o: o.update(heartbeat_s=0.0),
        lambda o: o.update(heartbeat_s=float("nan")),
        lambda o: o.update(heartbeat_s=float("inf")),
        lambda o: o["chaos"].update(crash_rate=float("nan")),
        lambda o: o["chaos"].update(slow_s=-1.0),
        lambda o: o["chaos"].update(hang_s=float("inf")),
        lambda o: o["chaos"].update(
            scripted=[[["pre_evaluate", 0, 0], dict(HANG, duration_s=-1.0)]]
        ),
    ],
)
def test_ill_typed_worker_config_is_a_wire_format_error(host_env, edit):
    cfg = wire.WorkerConfig(True, FaultPlan(1), None, host_env[0])
    obj = json.loads(wire.encode_worker_config(cfg))
    edit(obj)
    with pytest.raises(WireFormatError):
        wire.decode_worker_config(json.dumps(obj).encode())


def test_fault_plan_rejects_non_finite_rates_and_bad_durations():
    """``r < 0 or r > 1`` waved NaN through, and durations went
    unchecked: ``hang_s=inf`` made ``time.sleep`` raise in the worker."""
    nan, inf = float("nan"), float("inf")
    for bad in (
        {"crash_rate": nan},
        {"duplicate_rate": inf},
        {"slow_s": -1.0},
        {"hang_s": inf},
        {"slow_host_s": nan},
        {"slow_host_s": -inf},
    ):
        with pytest.raises(ValueError, match="fault"):
            FaultPlan(1, **bad)
    with pytest.raises(ValueError, match="durations"):
        FaultAction("hang", "pre_evaluate", duration_s=inf)
    for period in (-5.0, 0.0, nan, inf):
        with pytest.raises(ValueError, match="heartbeat_s"):
            wire.WorkerConfig(True, None, period)
    FaultPlan(1, crash_rate=1.0, hang_s=0.0)  # the closed ends stay legal


def test_worker_config_never_encodes_a_non_json_number(host_env):
    """Constructors keep NaN out; a value smuggled past them still cannot
    reach the wire as a bare ``NaN`` token."""
    cfg = wire.WorkerConfig(True, None, 0.5, host_env[0])
    object.__setattr__(cfg, "heartbeat_s", float("nan"))
    with pytest.raises(ValueError):
        wire.encode_worker_config(cfg)


@pytest.mark.parametrize("blob", [b"", b"\xff\xfe", b"[1, 2]", b"{", b"[" * 100_000])
def test_undecodable_worker_config_is_a_wire_format_error(blob):
    with pytest.raises(WireFormatError):
        wire.decode_worker_config(blob)


# ----------------------------------------------------------------------
# One owner
# ----------------------------------------------------------------------


def test_runtime_speaks_bytes_on_every_channel():
    """No module under src/repro/runtime imports pickle, and none calls
    ``.send(...)`` or a bare ``.recv()`` — the object-pickling half of a
    ``multiprocessing`` connection; sockets use ``sendall`` /
    ``recv(n)``, channels ``send_bytes`` / ``recv_bytes``."""
    offenders = []
    for path in sorted(RUNTIME.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(name.split(".")[0] in ("pickle", "dill") for name in names):
                offenders.append(f"{where}: imports pickle")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "send":
                    offenders.append(f"{where}: .send(...) pickles its argument")
                if node.func.attr == "recv" and not node.args and not node.keywords:
                    offenders.append(f"{where}: .recv() unpickles")
    assert offenders == []


def test_one_worker_host_class_apart_from_the_coordinator():
    """Exactly one class serves sessions — ``worker_host.WorkerHost``,
    which imports nothing from coordinator.py (the handshake lives in
    wire.py) — and coordinator.py defines only the coordinator side."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(RUNTIME.glob("*.py"))}
    imported = set()
    for node in ast.walk(trees["worker_host.py"]):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported if "coordinator" in name]
    classes = {
        name: [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for name, tree in trees.items()
    }
    hosts = [
        (name, cls.name)
        for name, found in classes.items()
        for cls in found
        if any(getattr(f, "name", None) == "serve_forever" for f in cls.body)
    ]
    assert hosts == [("worker_host.py", "WorkerHost")]
    assert {cls.name for cls in classes["coordinator.py"]} == {"_Slot", "TcpTransport"}


def _doc_table(header_cell: str, after: str = "") -> list[list[str]]:
    """Rows (cells stripped of backticks) of the first docs/formats.md
    table, indented or not, whose first header cell is ``header_cell``
    and that starts below the first line containing ``after``."""
    text = (ROOT / "docs" / "formats.md").read_text()
    lines = [line.strip() for line in text.splitlines()]
    begin = next(i for i, line in enumerate(lines) if after in line)
    start = next(
        i
        for i in range(begin, len(lines))
        if re.match(rf"\|\s*{header_cell}\s*\|", lines[i])
    )
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def _resolve(dotted: str):
    module, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(module), name)


def test_docs_magic_table_matches_code():
    documented = {row[0].encode(): row[1] for row in _doc_table("Magic")}
    assert documented == wire.MAGICS
    for magic, constant in wire.MAGICS.items():
        assert _resolve(constant) == magic


def test_docs_version_table_matches_code():
    rows = _doc_table("Family")
    documented = {
        family: tuple(int(v) for v in re.findall(r"\d+", reads))
        for family, _constant, reads in rows
    }
    assert documented == wire.SUPPORTED_VERSIONS
    for family, constant, _reads in rows:
        assert _resolve(constant) == max(wire.SUPPORTED_VERSIONS[family])
    assert [row[1] for row in rows] == [
        "repro.runtime.wire.SESSION_VERSION",
        "repro.runtime.plan_io.PLAN_VERSION",
        "repro.runtime.plan_io.CONSTSTORE_VERSION",
    ]
    assert documented["EPL1"][-1] == PLAN_VERSION
    assert documented["PCS1"][-1] == CONSTSTORE_VERSION
    assert wire.SESSION_VERSION == 4


def test_docs_worker_config_table_matches_the_dataclass():
    rows = _doc_table("Key", after="**Worker config**")
    assert [row[0] for row in rows] == [f.name for f in fields(wire.WorkerConfig)]


def test_docs_hello_table_matches_the_hello_head():
    """The fixed-offset rows of the ``FHL1`` table are the fields of the
    hello head struct, and the signature starts where the head ends."""
    rows = _doc_table("Offset", after="**`FHL1` hello**")
    assert [row[2] for row in rows] == [
        "version", "session", "sig_len", "signature", "cfg_len", "config"
    ]
    head = wire._HELLO_HEAD
    codes = head.format.lstrip("<")
    width = {"B": "u8", "H": "u16", "I": "u32", "Q": "u64"}
    want = [
        (struct.calcsize("<" + codes[:i]), width[code]) for i, code in enumerate(codes)
    ]
    documented = [(int(row[0]), row[1]) for row in rows if row[0].isdigit()]
    assert documented == [*want, (head.size, "…")]
    cfg = wire.WorkerConfig(True, None, None)
    assert wire.encode_hello("sig", 0, cfg)[head.size : head.size + 3] == b"sig"
