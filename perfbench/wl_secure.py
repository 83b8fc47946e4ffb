"""The ``secure-inference`` workload: a closed loop of functional
GuardNN sessions on :mod:`repro.core`, the only workload that runs
``core`` and ``crypto``.

One client, one device. Each *session* is the whole user flow through
an :class:`~repro.core.host.HonestHost`: fetch and authenticate the
device certificate, ``establish_session`` (ECDH/ECDSA), seal and
``SetWeight`` an int8 MLP, ``SetInput``, the ``Forward`` chain,
``ExportOutput``, ``SignOutput``, and ``verify_attestation``. A session
is correct when its output equals ``MlpSpec.reference_forward`` and its
attestation verifies.

One *round* is three sessions: two with integrity (CI) and one
confidentiality-only (C), in seeded order. Each session's MLP is
96 -> h -> 16 with h drawn from {40, 48, 56}, batch from {4, 8}, and
weights and inputs drawn from the seed. The fixed CI share keeps the
median session a CI session for every seed.
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, List

import numpy as np

from repro.core.device import GuardNNDevice
from repro.core.host import HonestHost, MlpSpec
from repro.core.mpu import MemoryProtectionUnit
from repro.core.session import UserSession
from repro.crypto.pki import ManufacturerCA
from repro.crypto.rng import HmacDrbg

import harness
from spans import Tracer

# the modules themselves: repro.crypto re-exports functions under the
# same names (``repro.crypto.cmac`` is the one-shot function there)
cmac, ctr, ecdh, ecdsa, sha256 = (
    importlib.import_module("repro.crypto." + name)
    for name in ("cmac", "ctr", "ecdh", "ecdsa", "sha256"))

TAIL_CAP = 75.0
#: 14 rounds x 3 sessions >= 40 samples, so p75 has ten beyond it
MIN_ROUNDS = 14
INSTRUCTIONS = ("GetPK", "InitSession", "SetWeight", "SetInput",
                "SetReadCTR", "Forward", "ExportOutput", "SignOutput")

#: the spans a traced run must record: every layer this workload runs
SPANS = (("crypto.cmac", "crypto.sha256", "crypto.ctr", "crypto.ecc")
         + tuple("core.execute." + name for name in INSTRUCTIONS)
         + ("core.mpu_write", "core.mpu_read", "core.seal", "core.verify"))


def build_device(seed: int):
    """The manufacturer CA and the one device every session uses."""
    ca = ManufacturerCA(HmacDrbg(b"perfbench-ca-%d" % seed))
    device = GuardNNDevice(b"perfbench-device", ca,
                           seed=b"perfbench-device-%d" % seed,
                           dram_bytes=1 << 22)
    return ca, device


class SessionStream:
    """Seeded session parameters, one round (2 CI + 1 C) at a time."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.count = 0

    def round(self) -> List[dict]:
        sessions = []
        for integrity in self.rng.permutation([True, True, False]):
            hidden = int(self.rng.choice([40, 48, 56]))
            batch = int(self.rng.choice([4, 8]))
            weights = [self.rng.integers(-20, 20, size=shape, dtype=np.int8)
                       for shape in ((96, hidden), (hidden, 16))]
            x = self.rng.integers(-20, 20, size=(batch, 96), dtype=np.int8)
            sessions.append({"id": self.count, "integrity": bool(integrity),
                             "spec": MlpSpec(weights), "x": x})
            self.count += 1
        return sessions


def run_session(ca, device, session: dict) -> tuple:
    """The whole user flow; returns (output at the user, attested)."""
    host = HonestHost(device)
    user = UserSession(ca.root_public,
                       HmacDrbg(b"perfbench-user-%d" % session["id"]))
    user.authenticate_device(host.fetch_device_info())
    host.establish_session(user, enable_integrity=session["integrity"])
    return host.compile_and_run(user, session["spec"], session["x"])


def output_correct(session: dict, output) -> bool:
    expected = session["spec"].reference_forward(session["x"])
    return output.shape == expected.shape and bool((output == expected).all())


def install_tracer(tracer: Tracer) -> None:
    """Wrap the public calls into crypto and core."""
    tracer.wrap_method(cmac.AesCmac, "mac", "crypto.cmac",
                       lambda obj, message: {"crypto.cmac_bytes": len(message)})
    tracer.wrap_method(ctr.AesCtr, "crypt", "crypto.ctr",
                       lambda obj, counter, data: {"crypto.ctr_bytes": len(data)})
    for attr in ("crypt_region", "crypt_block_with_counter"):
        tracer.wrap_method(ctr.AesCtr, attr, "crypto.ctr",
                           lambda obj, base, vn, data: {"crypto.ctr_bytes": len(data)})
    tracer.wrap_method(sha256.Sha256, "update", "crypto.sha256",
                       lambda obj, data: {"crypto.sha256_bytes": len(data)})
    tracer.wrap_method(sha256.Sha256, "digest", "crypto.sha256")
    tracer.wrap_static(ecdsa.EcdsaKeyPair, "generate", "crypto.ecc")
    tracer.wrap_function(ecdsa, "ecdsa_sign", "crypto.ecc")
    tracer.wrap_function(ecdsa, "ecdsa_verify", "crypto.ecc")
    tracer.wrap_function(ecdh, "ecdh_shared_secret", "crypto.ecc")
    tracer.wrap_method(GuardNNDevice, "execute",
                       lambda obj, instr: "core.execute." + type(instr).__name__)
    tracer.wrap_method(MemoryProtectionUnit, "write_protected", "core.mpu_write")
    tracer.wrap_method(MemoryProtectionUnit, "read_protected", "core.mpu_read")
    tracer.wrap_method(UserSession, "seal_weights", "core.seal")
    tracer.wrap_method(UserSession, "seal_input", "core.seal")
    tracer.wrap_method(UserSession, "verify_attestation", "core.verify")


def layer_metrics(tracer: Tracer, sessions: int) -> Dict[str, tuple]:
    busy = tracer.busy()

    def per_session(span: str) -> float:
        return busy.get(span, 0.0) / sessions

    metrics = {}
    for kind in ("cmac", "sha256", "ctr"):
        metrics[f"crypto.{kind}_s"] = (per_session("crypto." + kind), "s")
        metrics[f"crypto.{kind}_bytes"] = (
            tracer.counts.get(f"crypto.{kind}_bytes", 0.0) / sessions, "B")
    metrics["crypto.ecc_s"] = (per_session("crypto.ecc"), "s")
    for name in INSTRUCTIONS:
        metrics[f"core.execute_s.{name}"] = (
            per_session("core.execute." + name), "s")
    for name in ("mpu_write", "mpu_read", "seal", "verify"):
        metrics[f"core.{name}_s"] = (per_session("core." + name), "s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> harness.Result:
    setup = harness.probe_setup(workload, seed)
    ca, device = build_device(seed)
    stream = SessionStream(seed)
    tracer = Tracer() if trace else None
    latencies: Dict[bool, List[float]] = {False: [], True: []}
    rounds: List[float] = []
    attempted = failed = 0
    budget = harness.Budget(seconds, MIN_ROUNDS)
    while budget.more():
        # a traced run alternates untraced and traced rounds, so both
        # sides of the tracing-overhead estimate see the same machine
        traced = trace and len(rounds) % 2 == 1
        if traced:
            install_tracer(tracer)
        round_time = 0.0
        try:
            for session in stream.round():
                if traced:
                    tracer.set_op(session["id"])
                start = time.perf_counter()
                try:
                    output, attested = run_session(ca, device, session)
                except Exception as error:  # a failed session, counted
                    output, attested = None, False
                    print(f"# session {session['id']} raised {error!r}")
                latency = time.perf_counter() - start
                attempted += 1
                failed += not (attested and output_correct(session, output))
                latencies[traced].append(latency)
                round_time += latency
        finally:
            if traced:
                tracer.restore()
        budget.record(round_time)
        rounds.append(round_time)

    notes: Dict[str, object] = {"setup_samples_s": setup, "sessions": attempted}
    if not trace:
        plain = latencies[False]
        t = harness.tail(plain, TAIL_CAP)
        notes.update(latency_tail_pct=t.pct, latency_beyond_tail=t.beyond)
        metrics = {
            "setup_s": (harness.median(setup), "s"),
            "wall_s": (harness.median(rounds), "s"),
            "latency_p50_s": (harness.percentile(plain, 50.0), "s"),
            "latency_tail_s": (t.value, "s"),
            "requests_per_s": (len(plain) / sum(rounds), "1/s"),
            "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        }
        return harness.Result(attempted, failed, failed == 0, metrics, notes)

    traced = latencies[True]
    spans_ok = harness.check_spans(tracer, SPANS, notes)
    metrics = layer_metrics(tracer, len(traced))
    metrics["trace.overhead_s"] = (
        harness.median(traced) - harness.median(latencies[False]), "s")
    harness.finish_trace(tracer, workload, seed, metrics, notes, sum(traced))
    return harness.Result(attempted, failed, failed == 0 and spans_ok,
                          metrics, notes)
