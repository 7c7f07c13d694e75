#!/usr/bin/env python3
"""Time-to-verdict benchmark for the natural-proof verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run builds the verifier and
the harness from the checkout's own sources into .bench_build/. Every run
makes its inputs from the seed under .bench_work/, runs the workload, checks
each verdict against perfbench/oracle.json, prints a table of metrics (value,
unit, sample count) on stderr, then a provenance line and the result object
as the last line of stdout. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 runs the measured phase once plain and once on the
span-recording build and reports the per-layer metrics. The exit status is 0
when every verdict matches its known answer and no proof store has a
divergent key, 1 otherwise or on any failure (then no result is printed).
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict, namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUITE = os.path.join(ROOT, 'bench', 'suite')
BUILD = os.path.join(ROOT, '.bench_build')
WORK = os.path.join(ROOT, '.bench_work')
NPROC = len(os.sched_getaffinity(0))

# batch-cold: the negative corpus plus one stubborn module, single-shot
# dispatch, default 2 s vacuity probes. The 5 s deadline keeps one pass near
# 25 s on four cores; every dll obligation that times out here also timed out
# at 10 s in the reference run, so the deadline moves no verdict.
BATCH_DRAW = ['negative/seeded_bugs.dryad', 'fig6/dll.dryad']
BATCH_EDITED = 'fig6/dll.dryad'
BATCH_DEADLINES = {'timeout_ms': 5000, 'attempts': 1, 'vacuity_timeout_ms': 2000}
BATCH_FLAGS = ['--jobs', str(NPROC), '--timeout', '5000', '--attempts', '1']
# The unchanged module is one latency sample per pass; this many cold re-runs
# of it alone after the passes give its median more than one.
BATCH_HIT_RERUNS = 5
# A cold CLI run's set-up takes milliseconds; the median of this many rounds.
BATCH_SETUP_ROUNDS = 5
# recheck-green: the flags of the legacy store bench (vacuity off).
RECHECK_DEADLINES = {'timeout_ms': 10000, 'attempts': 1, 'vacuity': 'off'}
RECHECK_FLAGS = ['--jobs', str(NPROC), '--timeout', '10000', '--attempts', '1',
                 '--no-vacuity']
RECHECK_FILL_JOBS = 2
# Edited modules re-checked (in one CLI process) after each pass: enough
# edit samples per run that their median is not set by one slow solve.
RECHECK_EDITS_PER_PASS = 3
# edit-loop: the daemon's defaults (one session per CPU, one job each) with
# the batch's single-shot 10 s deadline and a 100 ms vacuity deadline: at the
# default 2 s x 2 attempts every unanswered probe costs 4 s and a hit 10-40 s.
# Half as many clients as CPUs: each busy session keeps a planning thread and
# a solver worker runnable, so more clients would only measure CPU contention.
SERVE_DEADLINES = {'timeout_ms': 10000, 'attempts': 1, 'vacuity_timeout_ms': 100}
SERVE_FLAGS = ['--attempts', '1', '--timeout', '10000', '--vacuity-timeout', '100']
LOOP_CLIENTS = max(1, NPROC // 2)
LOOP_HITS_PER_EDIT = 3
SECONDS_PER_CYCLE = 10

INFRA_FAILURES = {'lowering-error', 'resource-out', 'solver-crash', 'injected'}
PROC_RE = re.compile(r'^proc\s+(\w+)', re.M)
FAIL_LINE = re.compile(r'^    (.+?): (counterexample|timeout|solver-unknown|'
                       r'lowering-error|resource-out|solver-crash|injected|'
                       r'unknown)\b')

Span = namedtuple('Span', 'id parent name tag val start end')
# Spans that do not nest on the calling thread's stack.
ASYNC_SPANS = {'dispatch.obligation', 'sched.queue', 'sched.service',
               'sched.spawns', 'sched.recycles_crash', 'remote.busy_reply'}
# Spans every traced run of a workload must record. One missing means its
# wrapper no longer sees the calls (say the function became inline, or its
# callers moved into its own file), and that layer would read zero.
COMMON_SPANS = ['lang.parse', 'lang.paths', 'vcgen.generate',
                'natural.build', 'smt.lower', 'smt.smt2', 'verifier.verifyAll',
                'dispatch.submit', 'sched.service']
REQUIRED_SPANS = {
    # Without a store or journal the verifier computes no content keys.
    'batch-cold': COMMON_SPANS + ['sched.queue', 'sched.spawns'],
    'recheck-green': COMMON_SPANS + ['verifier.key', 'store.open',
                                     'store.lookup', 'store.put'],
    # The daemon opens its store before the measured window.
    'edit-loop': COMMON_SPANS + ['verifier.key', 'store.lookup', 'store.put'],
}


class BenchError(Exception):
    pass


def exe(name):
    return os.path.join(BUILD, name)


def run(cmd, cwd=ROOT, env=None, timeout=170):
    """Runs cmd in its own process group, so a timeout kills its workers too."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError('%s timed out' % ' '.join(cmd[:2]))
    return proc.returncode, out, err


def stop(proc):
    """SIGTERM (the daemon drains), then SIGKILL whatever is left of the group."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def build():
    for path in (os.path.join(ROOT, 'src'), SUITE):
        if not os.path.isdir(path):
            raise BenchError('%s is missing: run from the root of a checkout'
                             % path)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, 'CMakeCache.txt')):
        steps.append(['cmake', '-S', HERE, '-B', BUILD,
                      '-DCMAKE_BUILD_TYPE=RelWithDebInfo'])
    steps.append(['cmake', '--build', BUILD, '-j', str(NPROC)])
    log_path = os.path.join(BUILD, 'build.log')
    with open(log_path, 'w') as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode:
                with open(log_path) as f:
                    raise BenchError('build failed:\n' + f.read()[-3000:])


def fresh_dir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def module_text(key):
    with open(os.path.join(SUITE, key)) as f:
        return f.read()


def neutral_edit(text, proc, rng):
    """Opens proc's body with a fresh local and an assignment to it. The edit
    shares the line of the body's '{', so no later line number (and with it
    no loop-invariant name) moves."""
    lines = text.split('\n')
    head = next(i for i, line in enumerate(lines)
                if re.match(r'proc\s+%s\b' % re.escape(proc), line))
    brace = next(i for i in range(head + 1, len(lines))
                 if lines[i].strip() == '{')
    var = 'pb_%06x' % rng.getrandbits(24)
    lines[brace] = '{ var %s: int; %s := %d;' % (var, var, rng.randrange(1, 1000))
    return '\n'.join(lines)


def write_file(path, text):
    with open(path, 'w') as f:
        f.write(text)
    return path


def quantile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method='inclusive')[round(q * 100) - 1]


def obligation_kind(name):
    if '[vacuity' in name:
        return 'probe'
    if '] call ' in name:
        return 'call'
    return 'main'


class Tally:
    """Verdict bookkeeping for one measured phase."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.checked = 0      # main obligations and call checks
        self.decided = 0      # of those, answered sat or unsat in time
        self.operations = 0   # obligations incl. probes, or daemon requests
        self.failed = 0       # operations ended by an infrastructure failure
        self.verdict_errors = 0
        self.verified = set()

    def routines(self, module, results):
        """Checks (routine, verified) pairs against the known answers and
        returns how many were verified."""
        answers = self.oracle[module]
        count = 0
        for name, verified in results:
            if name not in answers:
                raise BenchError('%s: routine %s has no known answer'
                                 % (module, name))
            if verified:
                count += 1
                self.verified.add((module, name))
                if answers[name] == 'buggy':
                    self.verdict_errors += 1
        return count

    def batch_file(self, module, rec):
        for routine in rec['routines']:
            for ob in routine['obligations']:
                self.operations += 1
                if ob['status'] == 'unknown' and ob['failure'] in INFRA_FAILURES:
                    self.failed += 1
                if obligation_kind(ob['name']) != 'probe':
                    self.checked += 1
                    self.decided += ob['status'] != 'unknown'
        return self.routines(module, [(r['name'], r['verified'])
                                      for r in rec['routines']])

    def response(self, req, checks):
        """One daemon request; checks = its module's main + call count.
        Returns how many of them were decided. A refused or lost request,
        or one answered without a report (a parse error, an abort), decided
        nothing and failed; otherwise it failed when its report names an
        infrastructure failure. A timeout is undecided, not failed."""
        self.operations += 1
        self.checked += checks
        if req['status'] != 'ok' or not req['report']:
            self.failed += 1
            return 0
        report = json.loads(req['json']) if req['json'] else {'files': []}
        self.routines(req['label'], [(r['name'], r['verified'])
                                     for f in report['files']
                                     for r in f['routines']])
        undecided, infra = 0, False
        for line in req['report'].splitlines():
            m = FAIL_LINE.match(line)
            if not m:
                continue
            infra = infra or m.group(2) in INFRA_FAILURES
            if '[vacuity' not in m.group(1) and m.group(2) != 'counterexample':
                undecided += 1
        self.failed += infra
        self.decided += checks - undecided
        return checks - undecided


def batch_pass(program, files, flags, trace=None):
    env = dict(os.environ)
    if trace:
        env['PB_TRACE_OUT'] = trace
    start = time.monotonic()
    code, out, err = run([exe(program), 'batch'] + flags + files, env=env)
    wall = time.monotonic() - start
    if code != 0:
        raise BenchError('pbench batch exited %d: %s' % (code, err[-2000:]))
    records = [json.loads(line) for line in out.splitlines()
               if line.startswith('{')]
    files_out = [r for r in records if 'file' in r]
    if len(files_out) != len(files):
        raise BenchError('pbench batch answered %d of %d files'
                         % (len(files_out), len(files)))
    broken = [r['store_error'] for r in files_out if r['store_error']]
    if broken:
        raise BenchError('proof store unusable: ' + broken[0])
    rss = next(r['peak_rss_kb'] for r in records if 'peak_rss_kb' in r)
    return {'wall': wall, 'files': files_out, 'rss_mb': rss / 1024.0,
            'trace': trace}


def store_divergences(store):
    code, out, err = run([exe('dryadv'), '--store-verify', store], timeout=60)
    if 'MISSING' in out:
        raise BenchError('store fsck failed: ' + out + err)
    return sum(1 for line in out.splitlines() if 'DIVERGENT key' in line)


# ---------------------------------------------------------------- tracing --

def read_spans(paths, lo=None, hi=None):
    """Spans of every file; ids are made unique across files."""
    spans = []
    for index, path in enumerate(paths):
        if not path or not os.path.exists(path):
            continue
        base = index << 40
        with open(path) as f:
            for line in f:
                sid, parent, _req, _tid, name, tag, val, start, end = line.split()
                if lo is not None and not lo <= int(start) <= hi:
                    continue
                spans.append(Span(base + int(sid),
                                  base + int(parent) if int(parent) else 0,
                                  name, int(tag), float(val), int(start),
                                  int(end)))
    return spans


def layer_metrics(spans, units, slots, wall, required):
    """Per-layer numbers. Times, counts and bytes are per unit (a pass or a
    request); self time is a span's duration minus its nested children's.
    Refuses spans that lack a name in required."""
    missing = sorted(set(required) - {s.name for s in spans})
    if missing:
        raise BenchError('traced run recorded no %s span' % ', '.join(missing))
    children = defaultdict(int)
    for s in spans:
        if s.name not in ASYNC_SPANS and s.parent:
            children[s.parent] += s.end - s.start
    self_s = defaultdict(float)
    total = defaultdict(float)
    for s in spans:
        total[s.name] += (s.end - s.start) / 1e9
        if s.name not in ASYNC_SPANS:
            self_s[s.name] += (s.end - s.start - children[s.id]) / 1e9

    def of(name):
        return [s for s in spans if s.name == name]

    def per(x):
        return x / units

    service = of('sched.service')
    decided = [s for s in service if s.tag in (0, 1)]
    timeouts = [s for s in service if s.tag == 2]
    lookups = of('store.lookup')
    probes = [s for s in of('dispatch.obligation') if s.tag // 16 == 2]
    busy = sum((s.end - s.start) / 1e9 for s in service)
    return {
        'lang.parse_s': per(self_s['lang.parse']),
        'lang.paths_s': per(self_s['lang.paths']),
        'vcgen.generate_s': per(self_s['vcgen.generate']),
        'natural.build_s': per(self_s['natural.build']),
        'natural.assertions': per(sum(s.val for s in of('natural.build'))),
        'smt.lower_s': per(self_s['smt.lower']),
        'smt.smt2_s': per(self_s['smt.smt2']),
        'smt.smt2_mb': per(sum(s.val for s in service) / 1e6),
        'verifier.key_s': per(self_s['verifier.key']),
        'verifier.self_s': per(self_s['verifier.verifyAll']),
        'dispatch.self_s': per(self_s['dispatch.submit']),
        'store.open_s': per(self_s['store.open']),
        'store.lookup_s': per(self_s['store.lookup']),
        'store.put_s': per(self_s['store.put']),
        'store.records': per(len(of('store.put'))),
        'store.hit_ratio': (sum(1 for s in lookups if s.tag) / len(lookups)
                            if lookups else 0.0),
        'sched.queue_wait_s': per(total['sched.queue']),
        'sched.service_s': per(sum((s.end - s.start) / 1e9 for s in decided)),
        'sched.decided_tasks': per(len(decided)),
        'sched.timeout_s': per(sum((s.end - s.start) / 1e9 for s in timeouts)),
        'sched.timeout_tasks': per(len(timeouts)),
        'sched.decided_ratio': len(decided) / len(service) if service else 0.0,
        'sched.busy_ratio': busy / (wall * slots) if wall else 0.0,
        'sched.spawns': per(sum(s.val for s in of('sched.spawns'))),
        'sched.recycles_crash': per(sum(s.val for s in of('sched.recycles_crash'))),
        'verifier.vacuity_probes': per(len(probes)),
        'verifier.vacuity_decided_ratio': (
            sum(1 for s in probes if s.tag % 16 in (0, 1)) / len(probes)
            if probes else 0.0),
        'verifier.vacuity_s': per(sum(s.val for s in probes)),
        'remote.busy_replies': per(len(of('remote.busy_reply'))),
        'trace.spans': per(len(spans)),
    }


# -------------------------------------------------------------- workloads --

def batch_metrics(passes, inputs, tally, hit_reruns=()):
    """End-to-end numbers of batch passes; inputs = [(module, kind)] in file
    order, kind 'hit' (text unchanged) or 'edit' (neutrally edited);
    hit_reruns = [(module, file record)] of extra runs of unchanged modules."""
    latency = {'hit': [], 'edit': []}
    for module, rec in hit_reruns:
        tally.batch_file(module, rec)
        latency['hit'].append(rec['seconds'])
    rates, request_rates, verified = [], [], []
    for p in passes:
        before = tally.decided
        count = 0
        for (module, kind), rec in zip(inputs, p['files']):
            count += tally.batch_file(module, rec)
            latency[kind].append(rec['seconds'])
        rates.append((tally.decided - before) / p['wall'])
        request_rates.append(len(inputs) / p['wall'])
        verified.append(count)
    walls = [p['wall'] for p in passes]
    rss = [p['rss_mb'] for p in passes]
    metrics = {
        'wall_s': (statistics.median(walls), len(walls)),
        'obligations_per_s': (statistics.median(rates), len(rates)),
        'decided_share': (tally.decided / tally.checked, tally.checked),
        'verified_routines': (statistics.median(verified), len(verified)),
        'peak_rss_mb': (statistics.median(rss), len(rss)),
        'requests_per_s': (statistics.median(request_rates), len(request_rates)),
    }
    for kind in ('hit', 'edit'):
        if latency[kind]:
            metrics[kind + '_p50_s'] = (quantile(latency[kind], 0.5), len(latency[kind]))
            metrics[kind + '_p90_s'] = (quantile(latency[kind], 0.9), len(latency[kind]))
    return metrics


def timed_phase(seconds, one):
    """Calls one() until seconds have passed, at least once."""
    results = []
    start = time.monotonic()
    while not results or time.monotonic() - start < seconds:
        results.append(one())
    return results


def batch_cold(args, oracle, green, trace_dir):
    rng = random.Random('batch-cold:%d' % args.seed)
    inputs = []
    for module in BATCH_DRAW:
        text = module_text(module)
        kind = 'hit'
        if module == BATCH_EDITED:
            text = neutral_edit(text, rng.choice(PROC_RE.findall(text)), rng)
            kind = 'edit'
        inputs.append((module, kind, text))
    rundir = fresh_dir('batch-cold')

    # Set-up: what precedes verification in a cold CLI run, namely the
    # inputs on disk and the backend probe every run makes first.
    setups = []
    for _ in range(BATCH_SETUP_ROUNDS):
        start = time.monotonic()
        files = [write_file(os.path.join(rundir, m.replace('/', '_')), text)
                 for m, _, text in inputs]
        code, _, err = run([exe('dryadv'), '--list-backends'], timeout=60)
        if code != 0:
            raise BenchError('backend probe failed: ' + err)
        setups.append(time.monotonic() - start)

    def phase(program, seconds, traced):
        def one():
            trace = None
            if traced:
                trace = os.path.join(trace_dir, 'pass%d.spans' % len(os.listdir(trace_dir)))
            return batch_pass(program, files, BATCH_FLAGS, trace)
        return timed_phase(seconds, one)

    plain_seconds = args.seconds / 2 if args.trace else args.seconds
    passes = phase('pbench', plain_seconds, False)
    reruns = [(inputs[0][0], batch_pass('pbench', files[:1], BATCH_FLAGS)['files'][0])
              for _ in range(BATCH_HIT_RERUNS)]
    tally = Tally(oracle)
    metrics = batch_metrics(passes, [(m, k) for m, k, _ in inputs], tally, reruns)
    metrics['setup_s'] = (statistics.median(setups), len(setups))
    layers = None
    if args.trace:
        traced = phase('pbench_traced', args.seconds / 2, True)
        traced_walls = [p['wall'] for p in traced]
        layers = layer_metrics(read_spans([p['trace'] for p in traced]),
                               len(traced), NPROC, sum(traced_walls),
                               REQUIRED_SPANS['batch-cold'])
        layers.update({
            'trace.overhead_s': statistics.median(traced_walls) - metrics['wall_s'][0],
            'store.fsck_divergences': 0, 'serve.queued_peak': 0,
            'remote.verify_s': 0.0, 'remote.ping_s': 0.0})
        layers = {k: (v, len(traced)) for k, v in layers.items()}
    config = {'flags': BATCH_FLAGS, 'deadlines': BATCH_DEADLINES,
              'draw': BATCH_DRAW, 'edited': BATCH_EDITED}
    return metrics, layers, tally, config, 0


def recheck_green(args, oracle, green, trace_dir):
    rng = random.Random('recheck-green:%d' % args.seed)
    modules = green['green']
    texts = {m: module_text(m) for m in modules}
    # Edits walk the whole pool from a seeded offset, so a run's edits are
    # nearly the same multiset whatever the seed.
    pool = [(m, p) for m, procs in sorted(green['edit_pool'].items())
            for p in procs]
    offset = rng.randrange(len(pool))
    pool = pool[offset:] + pool[:offset]
    rundir = fresh_dir('recheck-green')
    files = [write_file(os.path.join(rundir, m.replace('/', '_')), texts[m])
             for m in modules]
    store = os.path.join(rundir, 'proofs.store')

    # Set-up: fill the store cold, one CLI process per module at once.
    start = time.monotonic()
    fills = [subprocess.Popen(
        [exe('pbench'), 'batch'] + RECHECK_FLAGS +
        ['--jobs', str(RECHECK_FILL_JOBS), '--store', store, f],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True) for f in files]
    errors = [proc.communicate(timeout=170)[1] for proc in fills]
    for proc, err in zip(fills, errors):
        if proc.returncode != 0:
            raise BenchError('store fill failed: ' + err[-2000:])
    setup = time.monotonic() - start

    rounds = []

    def phase(program, seconds, traced):
        def one():
            n = len(rounds)
            trace = (lambda tag: os.path.join(trace_dir, '%s%d.spans' % (tag, n))
                     if traced else None)
            p = batch_pass(program, files, RECHECK_FLAGS + ['--store', store],
                           trace('pass'))
            edited, paths = [], []
            for j in range(RECHECK_EDITS_PER_PASS):
                module, proc = pool[(n * RECHECK_EDITS_PER_PASS + j) % len(pool)]
                edited.append(module)
                paths.append(write_file(
                    os.path.join(rundir, 'edit%d-%d.dryad' % (n, j)),
                    neutral_edit(texts[module], proc, rng)))
            e = batch_pass(program, paths, RECHECK_FLAGS + ['--store', store],
                           trace('edit'))
            rounds.append((p, edited, e))
            return rounds[-1]
        return timed_phase(seconds, one)

    plain_seconds = args.seconds / 2 if args.trace else args.seconds
    plain = phase('pbench', plain_seconds, False)
    tally = Tally(oracle)
    metrics = batch_metrics([p for p, _, _ in plain],
                            [(m, 'hit') for m in modules], tally)
    edit_latency = []
    for _, edited, e in plain:
        for module, rec in zip(edited, e['files']):
            tally.batch_file(module, rec)
            edit_latency.append(rec['seconds'])
    metrics['decided_share'] = (tally.decided / tally.checked, tally.checked)
    metrics['edit_p50_s'] = (quantile(edit_latency, 0.5), len(edit_latency))
    metrics['edit_p90_s'] = (quantile(edit_latency, 0.9), len(edit_latency))
    metrics['setup_s'] = (setup, 1)
    layers = None
    if args.trace:
        traced = phase('pbench_traced', args.seconds / 2, True)
        traced_walls = [p['wall'] for p, _, _ in traced]
        layers = layer_metrics(
            read_spans([x for p, _, e in traced for x in (p['trace'], e['trace'])]),
            len(traced), NPROC, sum(p['wall'] + e['wall'] for p, _, e in traced),
            REQUIRED_SPANS['recheck-green'])
        layers.update({
            'trace.overhead_s': statistics.median(traced_walls) - metrics['wall_s'][0],
            'serve.queued_peak': 0, 'remote.verify_s': 0.0, 'remote.ping_s': 0.0})
    divergences = store_divergences(store)
    if layers is not None:
        layers['store.fsck_divergences'] = divergences
        layers = {k: (v, len(traced)) for k, v in layers.items()}
    config = {'flags': RECHECK_FLAGS, 'deadlines': RECHECK_DEADLINES,
              'fill_jobs': RECHECK_FILL_JOBS, 'edit_pool': green['edit_pool']}
    return metrics, layers, tally, config, divergences


def keys_count(path):
    """Main obligations plus call checks of a module, from the verifier's own
    planning (pbench keys)."""
    code, out, err = run([exe('pbench'), 'keys', path], timeout=120)
    if code != 0:
        raise BenchError('pbench keys %s failed: %s' % (path, err))
    return len(out.splitlines())


def loop_plan(rng, rundir, modules, texts, pool, paths, cycles):
    """Per client: cycles over every green module as an unchanged resubmit,
    with a neutral edit after every third. All clients walk one cyclic module
    order from evenly spread offsets, and the edit modules likewise, so the
    mix of work in flight is the same whatever the seed; the seed rotates the
    orders and picks the edited procedures and the fresh names."""
    shift = rng.randrange(len(modules))
    edit_modules = sorted(pool)
    proc_shift = {m: rng.randrange(len(pool[m])) for m in edit_modules}
    edited = defaultdict(int)
    lines = []
    for client in range(LOOP_CLIENTS):
        start = shift + client * len(modules) // LOOP_CLIENTS
        edits = client * len(edit_modules) // LOOP_CLIENTS
        for cycle in range(cycles):
            for i in range(len(modules)):
                module = modules[(start + cycle + i) % len(modules)]
                lines.append('%d %d hit %s %s' % (client, cycle, module,
                                                  paths[module]))
                if (i + 1) % LOOP_HITS_PER_EDIT:
                    continue
                target = edit_modules[edits % len(edit_modules)]
                edits += 1
                procs = pool[target]
                proc = procs[(proc_shift[target] + edited[target]) % len(procs)]
                edited[target] += 1
                path = write_file(
                    os.path.join(rundir, 'edit-c%d-%d.dryad' % (client, edits)),
                    neutral_edit(texts[target], proc, rng))
                lines.append('%d %d edit %s %s' % (client, cycle, target, path))
    return lines


def loop_spans(requests, key):
    """Seconds from the first send to the last answer of each request group."""
    first, last = {}, {}
    for r in requests:
        k = key(r)
        first[k] = min(first.get(k, r['t0']), r['t0'])
        last[k] = max(last.get(k, r['t1']), r['t1'])
    return {k: last[k] - first[k] for k in first}


def loop_cycle_times(requests):
    return list(loop_spans(requests, lambda r: (r['client'], r['block'])).values())


def client_output(out):
    requests, summary = [], None
    for line in out.splitlines():
        if line.startswith('{'):
            rec = json.loads(line)
            if rec.get('summary'):
                summary = rec
            else:
                requests.append(rec)
    if summary is None:
        raise BenchError('pbench client printed no summary')
    if summary['ping_failures']:
        raise BenchError('the daemon left %d pings unanswered'
                         % summary['ping_failures'])
    return requests, summary


def serve_session(rundir, fill_plan, loop_plan_path, traced):
    """One daemon life: start, fill, the measured closed loop, drain."""
    daemon_env = dict(os.environ)
    client_env = dict(os.environ)
    if traced:
        daemon_env['PB_TRACE_OUT'] = os.path.join(rundir, 'daemon.spans')
        client_env['PB_TRACE_OUT'] = os.path.join(rundir, 'client.spans')
    log = open(os.path.join(rundir, 'daemon.log'), 'w')
    start = time.monotonic()
    # Relative socket path: sun_path is 108 bytes, the checkout may be deep.
    daemon = subprocess.Popen(
        [exe('dryadv_traced' if traced else 'dryadv'), '--serve', 'sock',
         '--store', 'proofs.store'] + SERVE_FLAGS,
        cwd=rundir, env=daemon_env, stdout=subprocess.DEVNULL, stderr=log,
        start_new_session=True)
    try:
        while True:
            if daemon.poll() is not None:
                raise BenchError('daemon exited at start-up; see %s' % log.name)
            code, _, _ = run([exe('dryadv'), '--remote', 'sock', '--ping'],
                             cwd=rundir, timeout=30)
            if code == 0:
                break
            if time.monotonic() - start > 30:
                raise BenchError('daemon answered no ping in 30 s')
            time.sleep(0.02)
        code, out, err = run([exe('pbench'), 'client', '--socket', 'sock',
                              '--plan', fill_plan], cwd=rundir)
        fill, _ = client_output(out)
        if code != 0 or any(r['status'] != 'ok' for r in fill):
            raise BenchError('store fill through the daemon failed: ' + err[-2000:])
        setup = time.monotonic() - start
        lo = time.monotonic_ns()
        code, out, err = run([exe('pbench_traced' if traced else 'pbench'),
                              'client', '--socket', 'sock', '--plan',
                              loop_plan_path],
                             cwd=rundir, env=client_env)
        hi = time.monotonic_ns()
        if code != 0:
            raise BenchError('pbench client exited %d: %s' % (code, err[-2000:]))
        requests, summary = client_output(out)
        with open('/proc/%d/status' % daemon.pid) as f:
            rss_kb = next(int(line.split()[1]) for line in f
                          if line.startswith('VmHWM:'))
    finally:
        stop(daemon)
        log.close()
    return {'setup': setup, 'requests': requests, 'summary': summary,
            'rss_mb': rss_kb / 1024.0, 'window': (lo, hi),
            'divergences': store_divergences(os.path.join(rundir, 'proofs.store'))}


def edit_loop(args, oracle, green, trace_dir):
    modules = green['green']
    texts = {m: module_text(m) for m in modules}
    pool = green['edit_pool']
    cycles = max(1, int(args.seconds // SECONDS_PER_CYCLE))

    def session(name, traced):
        rundir = fresh_dir(name)
        paths = {m: write_file(os.path.join(rundir, m.replace('/', '_')), texts[m])
                 for m in modules}
        # The fill is set-up: one client per session.
        fill = ['%d 0 hit %s %s' % (i % NPROC, m, paths[m])
                for i, m in enumerate(modules)]
        fill_path = write_file(os.path.join(rundir, 'fill.plan'),
                               '\n'.join(fill) + '\n')
        # Both sessions of a traced run send the same seeded plan.
        plan = loop_plan(random.Random('edit-loop:%d' % args.seed), rundir,
                         modules, texts, pool, paths, cycles)
        plan_path = write_file(os.path.join(rundir, 'loop.plan'),
                               '\n'.join(plan) + '\n')
        return rundir, paths, serve_session(rundir, fill_path, plan_path, traced)

    _, paths, plain = session('edit-loop', False)
    checks = {m: keys_count(paths[m]) for m in modules}
    tally = Tally(oracle)
    latency = {'hit': [], 'edit': []}
    # Rates add up per client and the loop's time is the median cycle, so
    # one straggling request at the end of the loop does not set them.
    requests = defaultdict(int)
    decided = defaultdict(int)
    for req in plain['requests']:
        decided[req['client']] += tally.response(req, checks[req['label']])
        requests[req['client']] += 1
        latency[req['kind']].append(req['t1'] - req['t0'])
    busy = loop_spans(plain['requests'], lambda r: r['client'])
    cycle_times = loop_cycle_times(plain['requests'])
    n = len(plain['requests'])
    metrics = {
        'setup_s': (plain['setup'], 1),
        'wall_s': (statistics.median(cycle_times), len(cycle_times)),
        'obligations_per_s': (sum(decided[c] / busy[c] for c in busy),
                              tally.decided),
        'decided_share': (tally.decided / tally.checked, tally.checked),
        'verified_routines': (len(tally.verified), n),
        'peak_rss_mb': (plain['rss_mb'], 1),
        'hit_p50_s': (quantile(latency['hit'], 0.5), len(latency['hit'])),
        'hit_p90_s': (quantile(latency['hit'], 0.9), len(latency['hit'])),
        'edit_p50_s': (quantile(latency['edit'], 0.5), len(latency['edit'])),
        'edit_p90_s': (quantile(latency['edit'], 0.9), len(latency['edit'])),
        'requests_per_s': (sum(requests[c] / busy[c] for c in busy), n),
    }
    divergences = plain['divergences']
    layers = None
    if args.trace:
        rundir, _, traced = session('edit-loop-traced', True)
        lo, hi = traced['window']
        units = len(traced['requests'])
        spans = read_spans([os.path.join(rundir, 'daemon.spans'),
                            os.path.join(rundir, 'client.spans')], lo, hi)
        layers = layer_metrics(spans, units, LOOP_CLIENTS,
                               traced['summary']['window_s'],
                               REQUIRED_SPANS['edit-loop'])
        divergences += traced['divergences']
        layers.update({
            'trace.overhead_s': (statistics.median(loop_cycle_times(traced['requests']))
                                 - metrics['wall_s'][0]),
            'serve.queued_peak': traced['summary']['max_queued'],
            'remote.verify_s': statistics.mean(
                r['t1'] - r['t0'] for r in traced['requests']),
            'remote.ping_s': traced['summary']['ping_mean_s'],
            'store.fsck_divergences': divergences})
        layers = {k: (v, units) for k, v in layers.items()}
    config = {'flags': SERVE_FLAGS, 'deadlines': SERVE_DEADLINES,
              'clients': LOOP_CLIENTS, 'sessions': NPROC, 'jobs_per_session': 1,
              'hits_per_edit': LOOP_HITS_PER_EDIT, 'cycles_per_client': cycles,
              'edit_pool': pool}
    return metrics, layers, tally, config, divergences


WORKLOADS = {'batch-cold': batch_cold, 'recheck-green': recheck_green,
             'edit-loop': edit_loop}


# ------------------------------------------------------------- provenance --

def source_rev():
    try:
        done = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: identify the tree by its sources.
    digest = hashlib.sha256()
    for base in ('src', os.path.join('bench', 'suite')):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, 'rb') as f:
                    digest.update(f.read())
    return 'tree-sha256:' + digest.hexdigest()[:16]


def backends():
    code, out, err = run([exe('dryadv'), '--backends', 'z3,cvc5',
                          '--list-backends'], timeout=60)
    table = {}
    for line in out.splitlines():
        parts = line.split('\t')
        if len(parts) == 3:
            table[parts[0]] = {'available': parts[1] == 'available',
                               'detail': parts[2]}
    if code != 0 or 'z3' not in table:
        raise BenchError('backend probe failed: ' + err)
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, 'oracle.json')) as f:
            oracle = json.load(f)['modules']
        with open(os.path.join(HERE, 'green.json')) as f:
            green = json.load(f)
        build()
        trace_dir = fresh_dir('traces') if args.trace else None
        metrics, layers, tally, config, divergences = WORKLOADS[args.workload](
            args, oracle, green, trace_dir)
        table = backends()
        provenance = {
            'rev': source_rev(), 'nproc': NPROC,
            'z3': table['z3']['detail'] if table['z3']['available'] else '',
            'backends': table, 'workload': args.workload, 'seed': args.seed,
            'seconds': args.seconds, 'trace': args.trace,
            'flags': config['flags'], 'deadlines': config['deadlines'],
            'green': green['green'], 'green_reason': green['green_reason'],
            'config': config,
        }
        missing = [k for k in ('rev', 'nproc', 'z3', 'backends', 'flags',
                               'deadlines', 'seed', 'green')
                   if provenance.get(k) in (None, '', [], {})]
        if missing:
            raise BenchError('result refused: provenance lacks ' + ', '.join(missing))
        wanted = spec['per_layer'] if args.trace else spec['end_to_end']
        values = layers if args.trace else metrics
        rows = [(m['name'], m['unit']) + tuple(values[m['name']]) for m in wanted]
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError, StopIteration) as e:
        print('perfbench: %s' % e, file=sys.stderr)
        return 1

    correct = tally.verdict_errors == 0 and divergences == 0
    print('%-32s %14s %-6s %s' % ('metric', 'value', 'unit', 'samples'),
          file=sys.stderr)
    for name, unit, value, samples in rows:
        print('%-32s %14.6g %-6s n=%d' % (name, value, unit, samples),
              file=sys.stderr)
    failed_share = tally.failed / max(1, tally.operations)
    print('verdict_errors=%d failed_share=%.4f (%d of %d) fsck_divergences=%d'
          % (tally.verdict_errors, failed_share, tally.failed, tally.operations,
             divergences), file=sys.stderr)
    result = {'correct': correct, 'attempted': tally.operations,
              'failed': tally.failed,
              'metrics': {name: {'value': value, 'unit': unit}
                          for name, unit, value, _ in rows}}
    os.makedirs(os.path.join(WORK, 'results'), exist_ok=True)
    with open(os.path.join(WORK, 'results', '%s-seed%d-trace%d.json' % (
            args.workload, args.seed, args.trace)), 'w') as f:
        json.dump({'provenance': provenance, 'result': result,
                   'samples': {name: n for name, _, _, n in rows},
                   'verdict_errors': tally.verdict_errors,
                   'failed_share': failed_share,
                   'fsck_divergences': divergences}, f, indent=1)
    print(json.dumps({'provenance': provenance}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
