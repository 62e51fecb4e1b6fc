"""Per-layer wall-clock spans, recorded from outside the program.

The traced run wraps public functions of the layers in ``src/repro``
(named after their modules) at the module where each caller looks them
up, and restores the originals afterwards.  Nothing under ``src/`` is
edited.  Each span records its name, start, end, parent span and the id
of the benchmark op it belongs to; spans stay in memory until the run
ends.  A layer's *self time* is its span's duration minus the time its
child spans cover.

Wrappers only record inside an op (:meth:`Tracer.op`), so set-up work
and the server's own process are never traced.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: (span name, module, attribute) for every timed boundary.  A dotted
#: attribute is a method patched on its class, which is where a bound
#: call looks it up.  Decode has two call sites: ``decode_at`` (BBT block
#: scans, superblock formation, warm-start source checks) calls the
#: decoder module's global, and the interpreter imported its own name.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("x86lite.decode", "repro.isa.x86lite.decoder", "decode"),
    ("x86lite.decode", "repro.interp.interpreter", "decode"),
    ("translator.bbt", "repro.translator.bbt",
     "BasicBlockTranslator.translate"),
    ("translator.sbt", "repro.translator.sbt",
     "SuperblockTranslator.translate"),
    ("translator.crack", "repro.translator.bbt", "crack"),
    ("translator.crack", "repro.translator.sbt", "crack"),
    ("translator.fusion", "repro.translator.sbt", "fuse_microops"),
    ("fusible.run", "repro.isa.fusible.machine", "FusibleMachine.run"),
    ("vmm.run", "repro.vmm.runtime", "VMRuntime.run"),
    ("verify", "repro.persist.loader", "verify_translation"),
    ("persist.loader", "repro.persist.loader",
     "WarmStartLoader.load_records"),
    ("persist.capture", "repro.persist", "capture_translations"),
    ("persist.remote.pull", "repro.persist.remote", "RemoteRepository.load"),
    ("persist.remote.push", "repro.persist.remote", "RemoteRepository.save"),
    ("workloads.generate", "repro.workloads.trace", "generate_workload"),
    ("timing.simulate", "repro.timing.startup_sim", "simulate_startup"),
)

#: Frame headers the client decodes; the payload length is charged to
#: the innermost open span (``bytes:<span>``), which gives wire bytes
#: per pull.
WIRE = ("repro.cacheserver.protocol", "decode_header")


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        #: (span id, parent id, op id, name, start, end)
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        #: op id -> op kind
        self.op_kinds: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (op id, innermost span name) -> wire payload bytes received
        self.wire_bytes: Dict[Tuple[int, str], int] = defaultdict(int)
        self._wire_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Record every wrapped call made in this block under one op."""
        local = self._local
        sid = next(self._ids)
        local.op, local.stack = op_id, [(sid, "op")]
        self.op_kinds[op_id] = kind
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append((sid, 0, op_id, "op", start, end))
            local.stack = None

    def _timed(self, name: str, fn: Callable) -> Callable:
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0]
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, local.op, name, start, end))
        return wrapper

    def _wire(self, fn: Callable) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def wrapper(header):
            length, crc = fn(header)
            stack = getattr(local, "stack", None)
            if stack:
                with self._wire_lock:
                    self.wire_bytes[(local.op, stack[-1][1])] += length
            return length, crc
        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, module_name: str, attribute: str, make) -> None:
        owner, name = _resolve(module_name, attribute)
        original = getattr(owner, name)
        wrapped = make(original)
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))

    def install(self) -> None:
        for name, module_name, attribute in SPANS:
            self._patch(module_name, attribute,
                        functools.partial(self._timed, name))
        self._patch(*WIRE, self._wire)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def installed_ok(self) -> List[str]:
        """Patch sites whose attribute is no longer our wrapper."""
        lost = []
        for owner, name, original in self._patches:
            current = getattr(owner, name)
            if getattr(current, "__wrapped__", None) is not original:
                lost.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return lost

    # -- analysis ---------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """kind -> span name -> {calls, total_s, self_s}; wire bytes
        appear as ``{bytes}`` entries named ``bytes:<span>``."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, parent, _op, _name, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, Dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(float)))
        for sid, _parent, op_id, name, start, end in self.spans:
            entry = table[self.op_kinds[op_id]][name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
        for (op_id, name), value in self.wire_bytes.items():
            table[self.op_kinds[op_id]]["bytes:" + name]["bytes"] += value
        return table
