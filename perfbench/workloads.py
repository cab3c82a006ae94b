"""The three workloads: warm TPC-H, refresh-then-cold TPC-H, served traffic.

Every workload drives ``repro`` only through its public entry points
(``repro.datasets.tpch``, ``TQPSession.register/register_model/sql/prepare``
and ``ServingRuntime``) with ``ExecutionOptions(backend="torchscript",
device="cpu")`` and every other option at its default.  Each one

1. prepares what is not part of set-up (data generation, oracle answers,
   the generation-B shuffle, model fitting, the request stream);
2. sets up :data:`SETUP_REPEATS` times from scratch and keeps the last;
3. runs whole rounds of its operations until ``seconds`` have passed;
4. reads the peak resident set, then checks every answer.

Timings are CPU seconds of this process, all its threads
(``time.process_time``): on an unshared core that is the wall time, and on
a shared host it leaves out the time the host ran something else.  Over
15 s on a 2-vCPU virtual machine, the wall-clock rate of a fixed numpy loop
fell to 0.56x in some half-second windows while its CPU-time rate stayed
within 10%.  Each run prints its wall figures and CPU share beside them.
"""

from __future__ import annotations

import collections
import functools
import gc
import time
from dataclasses import dataclass, field

import numpy as np

import common
import oracle

#: Set-ups per run; ``setup_s`` reports import time plus their median.
SETUP_REPEATS = 3

#: TPC-H scale factors.
TPCH_SF = 0.01
SERVE_SF = 0.002

#: Tail percentile of each workload, the same in every run.  Each has at
#: least 10 samples beyond it in a 25 s run: tpch-warm ran 1 452-1 914
#: queries and tpch-refresh 176-264 in 60 runs, and serve-zipf runs whole
#: rounds of 256 serial requests, of which p95 leaves 12.  Every statement has a fixed share of a round, so each
#: percentile falls inside one statement's samples: raw Q13 on tpch-warm,
#: a cold Q13 on tpch-refresh, ``PREDICT`` on serve-zipf.
WARM_TAIL_PCT = 99.0
REFRESH_TAIL_PCT = 90.0
SERVE_TAIL_PCT = 95.0

#: Serving traffic: Zipf exponent over the 26 shapes, requests the closed
#: loop keeps outstanding, requests per round, length of the seeded stream
#: the round's bindings come from, open-loop arrival rate, and the reviews
#: corpus the sentiment model scores.  The rate is a quarter of the
#: closed-loop capacity (550-730/s on a 2-core machine), not half: at 280/s
#: the peak resident set, which grows with the results held for checking,
#: spread by 6% over five seeds, against 2-3% at 150/s.
ZIPF_S = 1.2
OUTSTANDING = 16
ROUND_REQUESTS = 256
STREAM_LENGTH = 4096
OPEN_RATE_PER_S = 150.0
NUM_REVIEWS = 400
MODEL_NAME = "sentiment_classifier"

#: Ops whose profiled kernel time the traced run reports by name.
KERNEL_OPS = ("unique", "fused_kernel", "searchsorted", "all", "argsort",
              "sliding_window", "take")

@functools.cache
def options():
    from repro import ExecutionOptions
    return ExecutionOptions(backend="torchscript", device="cpu")


@dataclass
class Outcome:
    """What one run measured and found."""

    attempted: int = 0
    failed: int = 0
    errors: collections.Counter = field(default_factory=collections.Counter)
    wrong: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    layer: dict = field(default_factory=dict)     # per-layer name -> value
    notes: list = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, line: str) -> None:
        self.notes.append(line)


class Checker:
    """Collects answers by key and checks each distinct one once.

    ``reference(key)`` returns the lists of expected rows of a key, each of
    which the answer must match.  A key (same statement, same binding, same
    data) must also return a bit-identical frame every time.
    """

    def __init__(self, reference, outcome: Outcome):
        self.reference = reference
        self.outcome = outcome
        self.frames: dict = collections.defaultdict(dict)  # key -> digest -> frame
        self.timed: collections.Counter = collections.Counter()

    def add(self, key, frame, timed: bool = True) -> None:
        """Record one answer; ``timed`` answers count as operations."""
        digest = common.frame_digest(frame)
        self.frames[key].setdefault(digest, frame)
        if timed:
            self.timed[key, digest] += 1

    def verify(self) -> None:
        for key, frames in self.frames.items():
            expected = self.reference(key)
            for digest, frame in frames.items():
                problem = None
                for rows in expected:
                    problem = oracle.mismatch(oracle.frame_rows(frame), rows)
                    if problem is not None:
                        break
                if problem is None and len(frames) > 1:
                    problem = (f"{len(frames)} different results for one "
                               "statement and binding")
                if problem is not None:
                    self.wrong(key, problem, self.timed[key, digest])

    def wrong(self, key, problem: str, timed_uses: int) -> None:
        self.outcome.wrong.append(f"{_key_name(key)}: {problem}")
        self.outcome.failed += timed_uses


def _key_name(key) -> str:
    return "/".join(str(part) for part in key)


def _latency_metrics(outcome: Outcome, timings: list, label: str,
                     tail_pct: float) -> None:
    """Latency metrics of ``(statement, seconds)`` samples.

    ``latency_geomean_ms`` is a geometric mean that weighs each statement
    equally (of each statement's own geometric mean), as TPC-H's power
    metric takes the geometric mean over its queries.  A pooled median
    sits on the border between two statements when they have equal
    weight: on tpch-refresh, in the gap between cold Q4 (~64 ms) and Q8
    (~76 ms), where it spread by 12% over five runs of one build.  Pooled
    over serve-zipf's requests, the 0.5-1 ms head shapes, whose CPU cost
    through the runtime changed by ±20% with the host while ``PREDICT``'s
    changed by ±5%, set 64% of the weight: that geometric mean spread by
    11% and 22% in two sets of ten runs, and over five runs it ranged 1.5
    times as widely as one over shapes.  The tail is a fixed percentile of
    the pooled samples: picked per run by sample count, it switched
    tpch-refresh between p90 and p95 as runs held four or five rounds.
    """
    by_statement = collections.defaultdict(list)
    for statement, seconds in timings:
        by_statement[statement].append(seconds)
    pooled = [seconds for _, seconds in timings]
    beyond = common.samples_beyond(len(pooled), tail_pct)
    outcome.metric("latency_geomean_ms", 1000.0 * common.geomean(
        [common.geomean(samples) for samples in by_statement.values()]), "ms")
    outcome.metric("latency_tail_ms",
                   1000.0 * common.percentile(pooled, tail_pct), "ms")
    outcome.note(f"latency_geomean_ms is over {len(by_statement)} "
                 f"statements; latency_tail_ms is p{tail_pct:g} of "
                 f"{len(pooled)} {label}, {beyond} beyond it"
                 + ("" if beyond >= common.TAIL_SAMPLES_BEYOND else
                    f" (fewer than {common.TAIL_SAMPLES_BEYOND}: no tail)")
                 + f"; pooled p50 {1000.0 * common.median(pooled):.4g} ms")


def _throughput(outcome: Outcome, timings: list) -> None:
    """Operations per CPU second spent in them."""
    outcome.metric("throughput_qps", len(timings) / sum(
        seconds for _, seconds in timings), "1/s")


def _setups(outcome: Outcome, setup_once, release=None):
    """Run ``setup_once`` :data:`SETUP_REPEATS` times; keep the last state."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None and release is not None:
            release(state)
        state = None
        gc.collect()
        start = time.process_time()
        state = setup_once()
        times.append(time.process_time() - start)
    outcome.note("set-up CPU seconds (import excluded): "
                 + ", ".join(f"{t:.3f}" for t in times))
    return common.median(times), state


def _freeze_heap() -> None:
    """Collect, then freeze every object made so far, before a timed phase.

    The inputs, the session and the answers held for checking then sit
    outside the collector, and a full collection inside the phase traverses
    only what the phase made.  Without this, one full collection over the
    ~170 000 objects a serving run holds paused the main thread for
    60-160 ms, and whether it fell inside the open loop made the open-loop
    tail bimodal: 30 ms in most runs, 80 ms in two of ten.  Each workload
    calls ``gc.unfreeze()`` when its timed phases end.
    """
    gc.collect()
    gc.freeze()


def _tpch_inputs(digest: common.Digest, scale_factor: float, data_seed: int):
    from repro.datasets import tpch
    directory = oracle.ensure_dataset(scale_factor, data_seed)
    for name in tpch.TABLE_NAMES:
        digest.file(directory / f"{name}.tbl")
    texts = {number: tpch.query(number, scale_factor)
             for number in tpch.ALL_QUERY_IDS}
    for text in texts.values():
        digest.text(text)
    return texts


def _load_and_register(scale_factor: float, data_seed: int):
    """Load the ``.tbl`` cache and register it in a fresh session."""
    from repro import TQPSession
    from repro.datasets import tpch
    tables = tpch.cached_tables(scale_factor, data_seed, root=common.DATA_ROOT)
    session = TQPSession()
    for name, frame in tables.items():
        session.register(name, frame)
    return tables, session


def _run_query(session, text, outcome: Outcome, recorder, op: str):
    """One SQL text → DataFrame; ``(CPU seconds, frame)`` or ``None`` on
    error."""
    if recorder is not None:
        recorder.set_op(op)
    start = time.process_time()
    try:
        frame = session.sql(text, options=options())
    except Exception as exc:  # noqa: BLE001 - counted and named, run goes on
        outcome.failed += 1
        outcome.errors[f"{op}: {type(exc).__name__}: {exc}"] += 1
        return None
    return time.process_time() - start, frame


def _wall_note(outcome: Outcome, operations: int, wall_s: float,
               cpu_s: float, label: str) -> None:
    """Print a timed phase's wall-clock rate and the CPU share of its wall
    time, which falls when the host runs something else."""
    outcome.note(f"{label}: {operations} in {wall_s:.2f} s wall, "
                 f"{operations / wall_s:.4g}/s wall; CPU {cpu_s:.2f} s "
                 f"({cpu_s / wall_s:.2f} of wall)")


def _tpch_expected(answers: dict, tables) -> callable:
    """``expected(query number)``: the row-engine rows, plus numpy rows for
    Q1 (ship date <= 1998-12-01 - 90 days) and Q6."""
    lineitem = tables["lineitem"]
    numpy_rows = {1: oracle.q1_rows(lineitem, "1998-09-02", full=True),
                  6: oracle.q6_rows(lineitem, 0.05, 0.07, 24.0)}

    def expected(number: int) -> list:
        return [answers[number]] + ([numpy_rows[number]]
                                    if number in numpy_rows else [])

    return expected


def _blocks(result) -> tuple[int, int]:
    """``(blocks skipped, blocks total)`` over a result's pruned scans."""
    scans = result.pruning.values()
    return (sum(scan["blocks_skipped"] for scan in scans),
            sum(scan["blocks_total"] for scan in scans))


def tpch_counts(session, texts: dict, generations: list, outcome: Outcome
                ) -> None:
    """Per-round counts, made once after timing: plan-cache traffic and
    pruning over one round, then graph size and one profiled execution per
    query on the current data."""
    before = session.plan_cache.stats()
    pruned = total = 0
    for frames in generations:
        if frames is not None:
            for name, frame in frames.items():
                session.register(name, frame)
        for number, text in texts.items():
            skipped, blocks = _blocks(
                session.prepare(text, options=options()).bind().execute())
            pruned += skipped
            total += blocks
    after = session.plan_cache.stats()
    layer = outcome.layer
    for name in ("hits", "misses", "invalidations"):
        layer[f"plan_cache.{name}"] = after[name] - before[name]
    layer["storage.blocks_pruned"] = pruned
    layer["storage.blocks_total"] = total
    programs = [(session.prepare(text, options=options()), None)
                for text in texts.values()]
    _program_counts(programs, outcome)


def _program_counts(programs: list, outcome: Outcome) -> tuple[int, int]:
    """Graph nodes after passes, and kernel counts, bytes and time of one
    profiled execution, summed over ``(prepared statement, binding)`` pairs.
    Returns the ``(blocks skipped, blocks total)`` of those executions."""
    nodes = kernels = kernel_bytes = pruned = total = 0
    kernel_s = collections.Counter()
    for prepared, binding in programs:
        nodes += len(prepared.compiled.executor_graph(binding).nodes)
        bound = prepared.bind(**binding) if binding else prepared.bind()
        result = bound.execute(profile=True)
        for summary in result.profile.by_op():
            kernels += summary.calls
            kernel_bytes += summary.total_bytes
            kernel_s[summary.key] += summary.total_s
        skipped, blocks = _blocks(result)
        pruned += skipped
        total += blocks
    layer = outcome.layer
    layer["tensor.graph_nodes"] = nodes
    layer["executor.kernels"] = kernels
    layer["executor.kernel_mb"] = kernel_bytes / 1e6
    for op in KERNEL_OPS:
        layer[f"executor.kernel_ms.{op}"] = 1000.0 * kernel_s[op]
    return pruned, total


# -- tpch-warm ---------------------------------------------------------------------

def tpch_warm(args, outcome: Outcome, recorder, digest: common.Digest):
    from repro.datasets import tpch
    answers = oracle.tpch_answers(TPCH_SF, args.data_seed)
    texts = _tpch_inputs(digest, TPCH_SF, args.data_seed)
    digest.text(f"order-seed {args.seed}")

    def setup_once():
        tables, session = _load_and_register(TPCH_SF, args.data_seed)
        warm = []
        for number, text in texts.items():
            ran = _run_query(session, text, outcome, recorder, f"Q{number}")
            if ran is not None:
                warm.append((number, ran[1]))
        return tables, session, warm

    setup_s, (tables, session, warm) = _setups(outcome, setup_once)
    expected = _tpch_expected(answers, tables)
    checker = Checker(lambda key: expected(key[-1]), outcome)
    for number, frame in warm:
        checker.add(("Q", number), frame, timed=False)

    rng = np.random.default_rng(args.seed)
    timings, results = [], []
    _freeze_heap()
    start, cpu_start = time.perf_counter(), time.process_time()
    while True:
        for number in rng.permutation(tpch.ALL_QUERY_IDS):
            number = int(number)
            outcome.attempted += 1
            ran = _run_query(session, texts[number], outcome, recorder,
                             f"Q{number}")
            if ran is not None:
                timings.append((number, ran[0]))
                results.append((number, ran[1]))
        if time.perf_counter() - start >= args.seconds:
            break
    _wall_note(outcome, len(timings), time.perf_counter() - start,
               time.process_time() - cpu_start, "queries")
    outcome.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
    gc.unfreeze()
    for number, frame in results:
        checker.add(("Q", number), frame)
    checker.verify()
    if recorder is not None:
        recorder.uninstall()
        tpch_counts(session, texts, [None], outcome)

    outcome.metric("setup_s", setup_s, "s")
    _throughput(outcome, timings)
    _latency_metrics(outcome, timings, "queries", WARM_TAIL_PCT)
    outcome.note(f"{len(timings) // len(texts)} rounds of {len(texts)} "
                 "queries")


# -- tpch-refresh ------------------------------------------------------------------

def _shuffled(tables, shuffle_seed: int) -> dict:
    """Generation B: every table's rows in a fixed-seed shuffled order."""
    rng = np.random.default_rng(shuffle_seed)
    return {name: frame.take(rng.permutation(frame.num_rows))
            for name, frame in tables.items()}


def tpch_refresh(args, outcome: Outcome, recorder, digest: common.Digest):
    from repro.datasets import tpch
    answers = oracle.tpch_answers(TPCH_SF, args.data_seed)
    texts = _tpch_inputs(digest, TPCH_SF, args.data_seed)
    digest.text(f"order-seed {args.seed} shuffle-seed {args.shuffle_seed}")

    setup_s, (tables, session) = _setups(
        outcome, lambda: _load_and_register(TPCH_SF, args.data_seed))
    generations = (("A", tables), ("B", _shuffled(tables, args.shuffle_seed)))
    expected = _tpch_expected(answers, tables)
    checker = Checker(lambda key: expected(key[-1]), outcome)

    rng = np.random.default_rng(args.seed)
    timings, refreshes, results = [], [], []
    _freeze_heap()
    start, cpu_start = time.perf_counter(), time.process_time()
    while True:
        refresh_s = 0.0
        for label, frames in generations:
            began = time.process_time()
            for name, frame in frames.items():
                session.register(name, frame)
            refresh_s += time.process_time() - began
            for number in rng.permutation(tpch.ALL_QUERY_IDS):
                number = int(number)
                outcome.attempted += 1
                ran = _run_query(session, texts[number], outcome, recorder,
                                 f"Q{number}{label}")
                if ran is not None:
                    timings.append(((label, number), ran[0]))
                    results.append(((label, number), ran[1]))
        refreshes.append(refresh_s)
        if time.perf_counter() - start >= args.seconds:
            break
    _wall_note(outcome, len(timings), time.perf_counter() - start,
               time.process_time() - cpu_start,
               "queries (re-registrations included)")
    outcome.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
    gc.unfreeze()
    for key, frame in results:
        checker.add(key, frame)
    # Float sums may differ in their last bits between row orders, so each
    # generation is held to bit-identity on its own and to the oracle (and
    # so to the other generation) within the tolerance.
    checker.verify()

    outcome.metric("setup_s", setup_s, "s")
    _throughput(outcome, timings)
    _latency_metrics(outcome, timings, "queries", REFRESH_TAIL_PCT)
    outcome.note(f"{len(refreshes)} A+B pairs of {2 * len(texts)} queries; "
                 "re-registering the tables took a median "
                 f"{1000.0 * common.median(refreshes):.1f} CPU ms per pair")
    if recorder is not None:
        recorder.uninstall()
        tpch_counts(session, texts, [frames for _, frames in generations],
                    outcome)


# -- serve-zipf ----------------------------------------------------------------------

def _fit_model():
    from repro.datasets import amazon_reviews
    from repro.ml.models import (BagOfWordsVectorizer, LogisticRegression,
                                 Pipeline)
    reviews = amazon_reviews.generate_reviews(num_reviews=NUM_REVIEWS, seed=7)
    train_texts, train_labels, _, _ = amazon_reviews.training_split(reviews)
    model = Pipeline([
        ("vectorizer", BagOfWordsVectorizer(
            vocabulary=amazon_reviews.SENTIMENT_VOCABULARY)),
        ("classifier", LogisticRegression(epochs=40)),
    ]).fit(train_texts, train_labels)
    return reviews, model


def _binding_key(params) -> tuple:
    return tuple(sorted((params or {}).items()))


def _wait(ticket) -> None:
    """Block until a request finished, whether it failed or not."""
    try:
        ticket.result()
    except Exception:  # noqa: BLE001 - failures are read after the run
        pass


def serve_zipf(args, outcome: Outcome, recorder, digest: common.Digest):
    from repro.errors import TQPError
    from repro.serve import ServingRuntime, build_shapes, zipfian_workload

    answers = oracle.tpch_answers(SERVE_SF, args.data_seed)
    _tpch_inputs(digest, SERVE_SF, args.data_seed)
    reviews, model = _fit_model()
    predicted = np.asarray(model.predict(list(reviews["text"])))
    shapes = build_shapes(SERVE_SF)
    stream = zipfian_workload(shapes, STREAM_LENGTH, seed=args.seed, s=ZIPF_S)
    requests = _zipf_round(shapes, stream,
                           np.random.default_rng([args.seed, 2]))
    open_count = int(OPEN_RATE_PER_S * args.seconds / 3)
    arrival_rng = np.random.default_rng([args.seed, 1])
    due_s = np.cumsum(arrival_rng.exponential(1.0 / OPEN_RATE_PER_S,
                                              open_count))
    warm_bindings = {shape.name: (shape.binder(np.random.RandomState(0))
                                  if shape.binder else None)
                     for shape in shapes}
    for shape in shapes:
        digest.text(f"{shape.name}\n{shape.sql}\n{warm_bindings[shape.name]}")
    for request in requests:
        digest.text(f"{request.shape.name} {_binding_key(request.params)}")
    digest.text(" ".join(f"{due:.9f}" for due in due_s))
    workers = common.cores()

    def setup_once():
        tables, session = _load_and_register(SERVE_SF, args.data_seed)
        session.register("amazon_reviews", reviews)
        session.register_model(MODEL_NAME, model)
        runtime = ServingRuntime(session, workers=workers)
        statements, warm = {}, []
        for shape in shapes:
            statement = runtime.prepare(shape.sql, options=options())
            statements[shape.name] = statement
            params = warm_bindings[shape.name]
            warm.append(((shape.name, _binding_key(params)),
                         statement.submit(**(params or {}))))
        for _, ticket in warm:
            _wait(ticket)
        return tables, runtime, statements, warm

    setup_s, (tables, runtime, statements, warm) = _setups(
        outcome, setup_once, release=lambda state: state[1].close())
    try:
        closed, closed_s, serial, opened, lags = _serve_traffic(
            args, outcome, runtime, statements, requests, due_s)
        outcome.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
        gc.unfreeze()
        stats = runtime.stats()
        if recorder is not None:
            recorder.uninstall()
            _serve_counts(runtime.session, statements, warm_bindings, outcome)
    finally:
        runtime.close()

    references = _serve_reference(answers, tables, reviews, predicted)
    checker = Checker(references, outcome)
    for key, ticket in warm:
        checker.add(key, ticket.run(), timed=False)
    service, predict_service, waits = [], [], []
    completed = collections.Counter()
    serial_timings, open_latencies = [], []
    for phase, key, ticket, mark in closed + serial + opened:
        try:
            result = ticket.result()
        except TQPError as exc:
            outcome.failed += 1
            outcome.errors[f"{key[0]}: {type(exc).__name__}: {exc}"] += 1
            continue
        checker.add(key, result.to_dataframe())
        completed[phase] += 1
        service.append(result.measured_s)
        if key[0] == "predict_sentiment":
            predict_service.append(result.measured_s)
        waits.append(ticket.latency_s - result.measured_s)
        if phase == "serial":
            serial_timings.append((key[0], mark))
        elif phase == "open":
            open_latencies.append(ticket.completed_at - mark)
    checker.verify()

    closed_wall_s, closed_cpu_s = closed_s
    outcome.metric("setup_s", setup_s, "s")
    outcome.metric("throughput_qps", completed["closed"] / closed_cpu_s,
                   "1/s")
    _latency_metrics(outcome, serial_timings, "serial requests",
                     SERVE_TAIL_PCT)
    _wall_note(outcome, completed["closed"], closed_wall_s, closed_cpu_s,
               "closed-loop requests")
    open_tail = common.percentile(open_latencies, SERVE_TAIL_PCT)
    outcome.note(f"open-loop latency from due time: p50 "
                 f"{1000 * common.median(open_latencies):.3f} ms, "
                 f"p{SERVE_TAIL_PCT:g} {1000 * open_tail:.3f} ms")
    outcome.note(f"closed loop: {len(closed)} requests, {OUTSTANDING} "
                 f"outstanding; serial: {len(serial)} requests, one "
                 f"outstanding; open loop: {len(opened)} "
                 f"requests at {OPEN_RATE_PER_S:g}/s, generator lag p50 "
                 f"{1000 * common.median(lags):.3f} ms, max "
                 f"{1000 * max(lags):.3f} ms; runtime {stats}")
    batches = stats["batches"]
    layer = outcome.layer
    layer["serve.service_ms"] = 1000.0 * float(np.mean(service))
    layer["serve.queue_wait_ms"] = 1000.0 * float(np.mean(waits))
    layer["ml.predict_service_ms"] = (1000.0 * float(np.mean(predict_service))
                                      if predict_service else 0.0)
    layer["serve.batches"] = batches
    layer["serve.mean_batch"] = (stats["batched_requests"] / batches
                                 if batches else 0.0)
    layer["serve.dedup_ratio"] = stats["deduped_requests"] / stats["submitted"]
    layer["serve.generator_lag_ms"] = 1000.0 * float(np.mean(lags))
    layer["serve.open_p50_ms"] = 1000.0 * common.median(open_latencies)
    layer["serve.open_tail_ms"] = 1000.0 * open_tail
    layer["serve.closed_wall_qps"] = completed["closed"] / closed_wall_s
    outcome.note(f"serve.dedup_ratio = {stats['deduped_requests']} deduped / "
                 f"{stats['submitted']} submitted")
    outcome.note(f"{len(checker.frames)} distinct statement bindings "
                 "checked against the row engine or numpy")


def _serve_counts(session, statements, bindings, outcome: Outcome) -> None:
    """Plan-cache traffic of the session (set-up only: requests go to
    prepared statements), and one profiled execution per shape."""
    stats = session.plan_cache.stats()
    for name in ("hits", "misses", "invalidations"):
        outcome.layer[f"plan_cache.{name}"] = stats[name]
    pruned, total = _program_counts(
        [(statement.prepared, bindings[name])
         for name, statement in statements.items()], outcome)
    outcome.layer["storage.blocks_pruned"] = pruned
    outcome.layer["storage.blocks_total"] = total


def _zipf_round(shapes, stream, rng) -> list:
    """One round of :data:`ROUND_REQUESTS` requests, in a seeded order.

    Each shape appears as often as its Zipf weight gives (largest
    remainder), with its bindings taken from its first requests in the
    seeded ``stream``.  Fixed counts keep the mix, and so the cost of a
    round and the statement each tail percentile falls on, the same at
    every seed.  A request costs from 0.5 CPU ms (Q6) to 22-26 ms
    (``PREDICT``, raw Q13), and in a sampled stream of 3 000 requests the
    count of each of the rarest shapes has a standard deviation of about a
    fifth of its mean.
    """
    weights = np.arange(1, len(shapes) + 1, dtype=np.float64) ** -ZIPF_S
    quota = ROUND_REQUESTS * weights / weights.sum()
    counts = np.floor(quota).astype(int)
    counts[np.argsort(counts - quota, kind="stable")
           [:ROUND_REQUESTS - counts.sum()]] += 1
    drawn = collections.defaultdict(list)
    for request in stream:
        drawn[request.shape.name].append(request)
    chosen = [drawn[shape.name][index % len(drawn[shape.name])]
              for shape, count in zip(shapes, counts)
              for index in range(count)]
    return [chosen[index] for index in rng.permutation(len(chosen))]


def _serve_traffic(args, outcome: Outcome, runtime, statements, requests,
                   due_s):
    """Three phases of a third of the run each, all from the main thread:

    * closed loop, :data:`OUTSTANDING` requests in flight, so the runtime
      batches and deduplicates;
    * serial, one request in flight, timed as the CPU seconds the process
      spent from submit to result: the request's own cost through the
      runtime, since the waiting main thread and idle workers spend none;
    * open loop on the ``due_s`` schedule, timed from each due time.

    Returns ``(closed, (closed wall s, closed CPU s), serial, open,
    generator lags)``; the three request lists hold ``(phase, key, ticket,
    mark)`` with ``mark`` the serial CPU latency or the open-loop due time.
    """
    from repro.errors import AdmissionError, BindingError

    phase_s = args.seconds / 3

    def submit(phase, position, mark=None):
        request = requests[position % len(requests)]
        key = (request.shape.name, _binding_key(request.params))
        outcome.attempted += 1
        try:
            ticket = statements[request.shape.name].submit(
                **(request.params or {}))
        except (AdmissionError, BindingError) as exc:
            outcome.failed += 1
            outcome.errors[f"{key[0]}: {type(exc).__name__}"] += 1
            return None
        return phase, key, ticket, mark

    closed, pending = [], collections.deque()
    _freeze_heap()
    start, cpu_start = time.perf_counter(), time.process_time()
    while True:
        for position in range(len(requests)):
            if len(pending) >= OUTSTANDING:
                _wait(pending.popleft())
            sent = submit("closed", position)
            if sent is not None:
                closed.append(sent)
                pending.append(sent[2])
        if time.perf_counter() - start >= phase_s:
            break
    for ticket in pending:
        _wait(ticket)
    closed_s = (time.perf_counter() - start, time.process_time() - cpu_start)

    serial = []
    _freeze_heap()
    start = time.perf_counter()
    while True:
        for position in range(len(requests)):
            began = time.process_time()
            sent = submit("serial", position)
            if sent is not None:
                _wait(sent[2])
                serial.append(sent[:3] + (time.process_time() - began,))
        if time.perf_counter() - start >= phase_s:
            break

    opened, lags = [], []
    _freeze_heap()
    origin = time.perf_counter()
    for position, offset in enumerate(due_s):
        due = origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append(time.perf_counter() - due)
        sent = submit("open", position, due)
        if sent is not None:
            opened.append(sent)
    for _, _, ticket, _ in opened:
        _wait(ticket)
    return closed, closed_s, serial, opened, lags


def _serve_reference(answers: dict, tables, reviews, predicted) -> callable:
    """Expected rows of one ``(shape, binding)`` key."""
    tpch_expected = _tpch_expected(answers, tables)

    def reference(key):
        name, binding = key
        params = dict(binding)
        if name == "q6_discount":
            return [oracle.q6_rows(tables["lineitem"], params["lo"],
                                   params["hi"], params["q"])]
        if name == "q1_cutoff":
            return [oracle.q1_rows(tables["lineitem"], params["cutoff"],
                                   full=False)]
        if name == "orders_window":
            return [oracle.orders_window_rows(tables["orders"],
                                              params["start"], params["stop"])]
        if name == "predict_sentiment":
            return [oracle.prediction_rows(reviews, predicted, params["cut"])]
        return tpch_expected(int(name.removeprefix("tpch_q")))

    return reference


WORKLOADS = {
    "tpch-warm": tpch_warm,
    "tpch-refresh": tpch_refresh,
    "serve-zipf": serve_zipf,
}
