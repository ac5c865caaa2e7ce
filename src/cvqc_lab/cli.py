"""Command line front end for the experiment families.

Each subcommand runs one experiment, writes a canonical data file (CSV
by default, a JSON mirror with --format json) and prints a short
summary naming the claim every row exercises.  `render` pretty-prints
an existing data file as an aligned text table with per-row pass/fail
margins.

Reproducibility contract: given the same config and seed, the written
data file is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import claims, config, effverify, jordan, partition, protocol


class ConfigError(Exception):
    """Bad command, key, value, or missing seed; nothing was written."""


class RuntimeFailure(Exception):
    """The run itself failed (unwritable output, backend fault)."""


class ParseError(Exception):
    """A data file or rendered table could not be read back."""


EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


# ---------------------------------------------------------------------------
# Configuration

FORMATS = ("csv", "json")


class Param(NamedTuple):
    """One parameter: kind, default, and its allowed values.

    kind "int" and "int-list" carry an inclusive (lo, hi) range, checked
    per entry for an int-list (a comma-separated string, kept as text so
    the JSON payload's params echo what was given); kind "choice" carries
    the allowed strings.
    """

    kind: str
    default: object
    allowed: tuple


_PARAMS: dict[str, dict[str, Param]] = {
    "jordan-demo": {
        "pairs": Param("int", 20, (1, 10000)),
        "dim_min": Param("int", 2, (2, 32)),
        "dim_max": Param("int", 8, (2, 32)),
    },
    "partition-claims": {
        "T": Param("int", 16, (2, 64)),
        "m": Param("int", 2, (1, 4)),
        "strategies": Param("int", 5, (1, 200)),
        "grid_strategies": Param("int", 1, (0, 50)),
        "mode": Param("choice", "ideal", ("ideal", "kernel")),
    },
    "repetition-sweep": {
        "m_list": Param("int-list", "1,2,3,4,5,6,7,8", (1, 24)),
        "trials": Param("int", 20000, (1, 10**7)),
        "adversary": Param("choice", "testonly", ("honest", "testonly", "cheat")),
        "n": Param("int", 12, (1, 18)),
    },
    "fs-attack": {
        "m": Param("int", 4, (1, 16)),
        "budgets": Param("int-list", "1,2,4,8,16,32", (1, 10**6)),
        "trials": Param("int", 5000, (1, 10**7)),
        "n": Param("int", 12, (1, 18)),
    },
    "effverify-demo": {
        "n": Param("int", 12, (1, 16)),
        # the cost probe's smallest time bound (_EFF_SWEEP[0] = 256) must
        # cover key derivation, 9 + 32m machine steps
        "m": Param("int", 4, (1, 7)),
        # the machine's idle loop runs in one interpreter step whatever
        # its length, so a session costs about 1 ms even at T = 2^40
        "time_bound": Param("int", 4096, (256, 1 << 40)),
        "trials": Param("int", 20, (1, 1000)),
        "flow": Param("choice", "two-round", ("four-round", "two-round")),
    },
}

# A grinding attempt (one commitment, one oracle query, one verification)
# costs 1.0-2.0 us on the bulk route over thousands of trials on a 2-core
# machine (m = 1..16), so this many take 1.3-2.7 minutes.
_FS_MAX_ATTEMPTS = 8 * 10**7
# Few trials grinding on pay per two-attempt step, 3m stream columns whatever
# the row count, at 24-46 us per column at one row (m = 1..16), and every
# chunk of up to protocol._TRIAL_CHUNK trials grinds on its own; so this many
# columns take an hour at 80 us; one budget of 10^6 over 79 trials at m = 16
# (2.4 * 10^7 columns at most) took 9 minutes.
_FS_MAX_GRIND_COLUMNS = 45 * 10**6
# A trial coordinate of repetition-sweep costs 0.01-0.11 us on the bulk
# route for honest and testonly (m = 1..20) and 0.46-0.57 us for the cheat
# (m = 1 and 24) on a 2-core machine, so this many take under an hour.
_SWEEP_MAX_COORDS = 5 * 10**9
# A partition chain of the gamma-tuple grid costs 105-140 us in ideal mode
# and 90-150 us in kernel mode at m = 4 (20-100 us at m = 1..3, T = 16) on
# a 2-core machine, so this many take at most 40 minutes.
_PARTITION_MAX_CHAINS = 15 * 10**6


def _jordan_rules(p: dict):
    _require(p["dim_min"] <= p["dim_max"],
             f"need dim_min <= dim_max, got {p['dim_min']}..{p['dim_max']}")


def _partition_rules(p: dict):
    # phase-register width grows with T; keep the demo desk-sized
    _require(p["mode"] != "kernel" or p["T"] <= 32,
             f"kernel mode limited to T <= 32, got T={p['T']}")
    # the grid rows run one partition_chain per gamma tuple per strategy
    chains = p["grid_strategies"] * p["T"] ** p["m"]
    _require(chains <= _PARTITION_MAX_CHAINS,
             f"partition-claims would run about {chains:,} partition chains (grid_strategies "
             f"x T^m), over the {_PARTITION_MAX_CHAINS:,} that take up to an hour")


def _repetition_rules(p: dict):
    # the cheat simulates a dense unitary on 2^(n+3) amplitudes
    _require(p["adversary"] != "cheat" or p["n"] <= 6,
             f"cheat adversary limited to n <= 6, got n={p['n']}")
    coords = p["trials"] * sum(_parse_int_list(p["m_list"]))
    _require(coords <= _SWEEP_MAX_COORDS,
             f"repetition-sweep would replay about {coords:,} trial coordinates (trials x "
             f"sum of m_list), over the {_SWEEP_MAX_COORDS:,} that take up to an hour")


def _fs_rules(p: dict):
    budgets = _parse_int_list(p["budgets"])
    # per trial one honest pass plus up to q grinding attempts for each budget q
    attempts = p["trials"] * (1 + sum(budgets))
    _require(attempts <= _FS_MAX_ATTEMPTS,
             f"fs-attack would make about {attempts:,} commitment attempts (trials x (1 + sum "
             f"of budgets)), over the {_FS_MAX_ATTEMPTS:,} that take 1.3-2.7 minutes over "
             f"thousands of trials")
    steps = sum(-(-q // 2) for q in budgets)
    grind = -(-p["trials"] // protocol._TRIAL_CHUNK) * steps * 3 * p["m"]
    _require(grind <= _FS_MAX_GRIND_COLUMNS,
             f"fs-attack would grind up to {grind:,} stream columns (3m per two-attempt step, "
             f"ceil(q/2) steps per budget q and chunk of trials), about "
             f"{grind / _FS_MAX_GRIND_COLUMNS:.1f} hours against the one allowed")


# Rules across parameters of one command, checked after each parameter's own.
_CROSS_RULES = {
    "jordan-demo": _jordan_rules,
    "partition-claims": _partition_rules,
    "repetition-sweep": _repetition_rules,
    "fs-attack": _fs_rules,
}

_COMMANDS = tuple(_PARAMS)


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    seed: int
    out: str
    fmt: str
    params: dict = field(default_factory=dict)


def _int_or_text(text: str):
    """text as an int when it reads as one, else as given, for config.check_int to refuse."""
    try:
        return int(text)
    except ValueError:
        return text


def _parse_int_list(text: str) -> tuple:
    """The comma-separated entries of text, each through _int_or_text."""
    return tuple(_int_or_text(p.strip()) for p in text.split(","))


def _spec(command: str, key: str) -> Param:
    spec = _PARAMS[command]
    if key not in spec:
        raise ConfigError(f"unknown key {key!r} for {command} "
                          f"(known: {', '.join(sorted(spec))})")
    return spec[key]


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _check_params(command: str, params: dict):
    """Type and range of every parameter, then the command's cross rules."""
    for key, spec in _PARAMS[command].items():
        value = params[key]
        if spec.kind == "choice":
            _require(isinstance(value, str) and value in spec.allowed,
                     f"{key} must be one of {', '.join(spec.allowed)}, got {value!r}")
            continue
        lo, hi = spec.allowed
        if spec.kind == "int":
            config.check_int(key, value, lo, ConfigError, hi)
            continue
        _require(isinstance(value, str), f"{key} must be a string, got {value!r}")
        for entry in _parse_int_list(value):
            config.check_int(key, entry, lo, ConfigError, hi)
    if command in _CROSS_RULES:
        _CROSS_RULES[command](params)


def build_config(command: str, *, seed=None, out=None, fmt=None,
                 config_path=None, sets=()) -> ExperimentConfig:
    """Assemble and validate a run configuration.

    Precedence: built-in defaults, then the JSON config file, then
    --set pairs.  seed is mandatory; every command draws randomness.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    params = {k: spec.default for k, spec in _PARAMS[command].items()}

    file_seed = None
    file_fmt = None
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key == "seed":
                file_seed = value
            elif key == "format":
                file_fmt = value
            else:
                _spec(command, key)
                params[key] = value

    for pair in sets:
        if not isinstance(pair, str) or "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if key == "seed":
            raise ConfigError("set the seed with --seed, not --set")
        params[key] = _int_or_text(value) if _spec(command, key).kind == "int" else value

    if seed is None:
        seed = file_seed
    if seed is None:
        raise ConfigError(f"{command} draws randomness; --seed is required")
    seed = config.check_int("seed", seed, 0, ConfigError)
    if fmt is None:
        fmt = file_fmt if file_fmt is not None else "csv"
    _require(fmt in FORMATS, f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    _check_params(command, params)
    return ExperimentConfig(command=command, seed=seed,
                            out=out if out is not None else f"{command}.{fmt}",
                            fmt=fmt, params=params)


# ---------------------------------------------------------------------------
# Task seeds

def _task_seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(v) for v in state]


# ---------------------------------------------------------------------------
# Canonical cells

def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        raise RuntimeFailure(f"boolean cell {value!r}; encode flags as 0/1 ints")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    raise RuntimeFailure(f"cannot serialize cell {value!r}")


def _stringify_rows(rows):
    """The header, the first row's keys, and every row's cells as strings."""
    columns = list(rows[0])
    out = []
    for row in rows:
        if list(row) != columns:
            raise RuntimeFailure(f"row keys {list(row)} differ from the header {columns}")
        out.append({c: _cell(row[c]) for c in columns})
    return columns, out


# ---------------------------------------------------------------------------
# Experiment: jordan-demo

def _jordan_pair(index, task_seed, dim_min, dim_max):
    rng = np.random.default_rng(task_seed)
    dim = int(rng.integers(dim_min, dim_max + 1))
    rank0 = int(rng.integers(1, dim))
    rank1 = int(rng.integers(1, dim))
    p0 = jordan.random_projector(rng, dim, rank0)
    p1 = jordan.random_projector(rng, dim, rank1)
    dec, pair = claims.jordan_pair(p0, p1)
    base = {"pair": index, "dim": dim, "rank0": rank0, "rank1": rank1,
            "blocks2d": len(dec.blocks2d), "blocks1d": len(dec.blocks1d)}
    return [dict(base, **claim._asdict()) for claim in pair]


def _run_jordan(cfg: ExperimentConfig):
    p = cfg.params
    seeds = _task_seeds(cfg.seed, p["pairs"])
    rows = [row for i in range(p["pairs"])
            for row in _jordan_pair(i, seeds[i], p["dim_min"], p["dim_max"])]
    return rows, {}


# ---------------------------------------------------------------------------
# Experiment: partition-claims

def _partition_row(idx, params, norms, claim):
    return {
        "seed": idx, "m": params.m, "i": params.i, "gamma0": params.gamma0,
        "T": params.T, "gamma": params.gamma, "mode": params.mode,
        "norm_psi0": norms[0], "norm_psi1": norms[1], "norm_err": norms[2],
        **claim._asdict(),
    }


def _norms(out):
    return out.psi0.norm2, out.psi1.norm2, out.psi_err.norm2


def _strategy_and_state(task_seed, m):
    rng = np.random.default_rng(task_seed)
    s = partition.random_strategy(rng, m=m, x_width=1, z_width=1)
    return rng, s, partition.random_xz_state(rng, s)


def _mid_params(m, T, mode):
    grid = partition.gamma_grid(1.0, T)
    return partition.PartitionParams(m, 1, 1.0, T, float(grid[len(grid) // 2]), mode)


def _run_partition(cfg: ExperimentConfig):
    p = cfg.params
    m, T, mode = p["m"], p["T"], p["mode"]
    n_str, n_grid = p["strategies"], p["grid_strategies"]
    seeds = _task_seeds(cfg.seed, 4 * n_str + n_grid)
    rows = []
    for i in range(n_str):
        # every grid point gets a row for its norms; measured repeats the
        # strategy's grid average because the claim only bounds that average
        _, s, psi = _strategy_and_state(seeds[i], 1)
        claim, outs = claims.err_grid_avg(s, psi, T, mode)
        rows += [_partition_row(i, params, _norms(o), claim) for params, o in outs]

        _, s, psi = _strategy_and_state(seeds[n_str + i], m)
        rows += [_partition_row(i, params, _norms(o), claim)
                 for claim, params, o in claims.branch_split(s, psi, _mid_params(m, T, mode))]

        rng = np.random.default_rng(seeds[2 * n_str + i])
        s = partition.random_strategy(rng, m=m, x_width=1, z_width=1, controlled=True)
        params = _mid_params(m, T, "ideal")
        claim, out = claims.low_branch_test_round(s, params, rng)
        rows.append(_partition_row(i, params, _norms(out), claim))

        rng, s, psi = _strategy_and_state(seeds[3 * n_str + i], m)
        grid = partition.gamma_grid(1.0, T)
        gammas = tuple(float(grid[int(v)]) for v in rng.integers(0, len(grid), size=m))
        claim, means = claims.chain_remainder_avg(s, psi, gammas, T)
        params = partition.PartitionParams(m, 1, 1.0, T, gammas[0], "ideal")
        rows.append(_partition_row(i, params, means, claim))
    for i in range(n_grid):
        rng, s, psi = _strategy_and_state(seeds[4 * n_str + i], m)
        grid = [float(g) for g in partition.gamma_grid(1.0, T)]
        # reversed so the first coordinate varies fastest; each tuple draws
        # its challenge just before its chain runs
        runs = ((g[::-1], format(int(rng.integers(1 << m)), f"0{m}b"))
                for g in itertools.product(grid, repeat=m))
        claim, means = claims.chain_err_grid_avg(s, psi, runs, T, mode)
        rows.append(_partition_row(i, _mid_params(m, T, mode), means, claim))
    return rows, {}


# ---------------------------------------------------------------------------
# Experiments: repetition-sweep and fs-attack

def _protocol_row(m, adversary, stats, claim):
    return {
        "m": m, "adversary": adversary, "trials": stats.trials,
        "accepts": stats.accepts, "rate": stats.accept_rate,
        "queries": stats.queries, **claim._asdict(),
    }


def _run_repetition(cfg: ExperimentConfig):
    p = cfg.params
    ms = _parse_int_list(p["m_list"])
    name, trials, n = p["adversary"], p["trials"], p["n"]
    seeds = _task_seeds(cfg.seed, len(ms))
    rows = []
    prev_rate = 1.0
    for m, task_seed in zip(ms, seeds):
        if name == "cheat":
            claim, stats = claims.cheat_nonincreasing(n, m, trials, task_seed, prev_rate)
            prev_rate = stats.accept_rate
        else:
            rate = claims.testonly_rate if name == "testonly" else claims.honest_rate
            claim, stats = rate(n, m, trials, task_seed)
        rows.append(_protocol_row(m, name, stats, claim))
    return rows, {}


def _fs_game(m, n, task_seed):
    """The m-fold toy protocol under Fiat-Shamir, over the task's own oracle."""
    base = protocol.parallel_repeat(protocol.toy_protocol(n), m)
    return protocol.fiat_shamir(base, protocol.OracleTable(task_seed ^ 0x0F5, m))


def _run_fs(cfg: ExperimentConfig):
    p = cfg.params
    m, n, trials = p["m"], p["n"], p["trials"]
    budgets = _parse_int_list(p["budgets"])
    seeds = _task_seeds(cfg.seed, len(budgets) + 1)
    claim, honest = claims.fs_completeness(_fs_game(m, n, seeds[0]), trials, seeds[0])
    rows = [_protocol_row(m, "honest", honest, claim)]
    for q, task_seed in zip(budgets, seeds[1:]):
        claim, stats = claims.grinder_rate(_fs_game(m, n, task_seed), q, trials, task_seed)
        rows.append(_protocol_row(m, f"grinder[{q}]", stats, claim))
    claim, again = claims.fs_deterministic(_fs_game(m, n, seeds[0]), honest, seeds[0])
    rows.append(_protocol_row(m, "honest-rerun", again, claim))
    return rows, {}


# ---------------------------------------------------------------------------
# Experiment: effverify-demo

_EFF_SWEEP = (256, 1024, 4096)


def _eff_backends(task_seed, n, m):
    return (effverify.make_stub_suite(task_seed),
            effverify.toy_inner(n, m, fs_seed=task_seed ^ 0x7E57))


def _eff_row(idx, flow, n, m, time_bound, verdict, report, claim):
    return {
        "session": idx, "flow": flow, "n": n, "m": m, "time_bound": time_bound,
        "verdict": int(verdict), "verifier_ops": report.verifier_ops,
        "prover_ops": report.prover_ops, "message_bytes": report.message_bytes,
        **claim._asdict(),
    }


def _run_effverify(cfg: ExperimentConfig):
    p = cfg.params
    n, m, time_bound, flow = p["n"], p["m"], p["time_bound"], p["flow"]
    seeds = _task_seeds(cfg.seed, p["trials"] + len(_EFF_SWEEP))
    rows, dumps = [], []
    for idx in range(p["trials"]):
        claim, verdict, ses = claims.eff_completeness(
            *_eff_backends(seeds[idx], n, m), flow, seeds[idx], time_bound)
        rows.append(_eff_row(idx, flow, n, m, time_bound, verdict,
                             effverify.cost_report(ses), claim))
        dumps.append(ses.dump())

    # cost scaling probe: one session per time bound, each with its own seed
    probe = ((*_eff_backends(s, n, m), s, tb)
             for s, tb in zip(seeds[p["trials"]:], _EFF_SWEEP))
    linear, sweep = claims.eff_prover_linear(probe, flow)
    tb, verdict, report = sweep[-1]
    rows.append(_eff_row(-1, "sweep", n, m, tb, verdict, report, claims.eff_verifier_flat(sweep)))
    rows.append(_eff_row(-1, "sweep", n, m, tb, verdict, report, linear))
    return rows, {"sessions": dumps}


# ---------------------------------------------------------------------------
# Output files

_RUNNERS = {
    "jordan-demo": _run_jordan,
    "partition-claims": _run_partition,
    "repetition-sweep": _run_repetition,
    "fs-attack": _run_fs,
    "effverify-demo": _run_effverify,
}


def _write_csv(path: str, columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    _write_text(path, buf.getvalue())


def _write_json(path: str, payload: dict):
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeFailure(f"cannot write {path}: {exc}")


def summarize(rows) -> str:
    """One line per claim, in first-seen order: the worst row decides the printed margin."""
    worst = {}
    for row in rows:
        ref, count = worst.get(row["claim_id"], (row, 0))
        margin_new = float(row["bound"]) - float(row["measured"])
        margin_old = float(ref["bound"]) - float(ref["measured"])
        worst[row["claim_id"]] = (row if margin_new < margin_old else ref, count + 1)
    lines = []
    for cid, (row, count) in worst.items():
        bound, measured = float(row["bound"]), float(row["measured"])
        verdict = "measured <= bound" if measured <= bound else "measured > bound FAIL"
        lines.append(f"{cid}: bound {_cell(bound)} measured {_cell(measured)} "
                     f"{verdict} [{count} rows]")
    return "\n".join(lines)


def run(cfg: ExperimentConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        raw_rows, extra = _RUNNERS[cfg.command](cfg)
        columns, rows = _stringify_rows(raw_rows)
        if cfg.fmt == "csv":
            _write_csv(cfg.out, columns, rows)
        else:
            _write_json(cfg.out, {
                "command": cfg.command,
                "seed": cfg.seed,
                "params": dict(sorted(cfg.params.items())),
                "columns": columns,
                "rows": rows,
                **extra,
            })
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeFailure as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(rows)} rows to {cfg.out}")
    print(summarize(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Rendering

def _load_rows(path: str):
    """Read a data file back as (columns, rows-of-strings)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    if not text.strip():
        raise ParseError(f"{path} is empty")
    if path.endswith(".json") or text.lstrip()[0] in "{[":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}")
        if not isinstance(payload, dict) or "columns" not in payload or "rows" not in payload:
            raise ParseError(f"{path}: JSON data files need 'columns' and 'rows'")
        columns = payload["columns"]
        if (not isinstance(columns, list) or not columns
                or not all(isinstance(c, str) for c in columns)):
            raise ParseError(f"{path}: malformed column list")
        if not isinstance(payload["rows"], list):
            raise ParseError(f"{path}: 'rows' must be a list")
        rows = []
        for row in payload["rows"]:
            if not isinstance(row, dict) or set(columns) - set(row):
                raise ParseError(f"{path}: row does not match columns")
            try:
                rows.append({c: row[c] if isinstance(row[c], str) else _cell(row[c])
                             for c in columns})
            except RuntimeFailure as exc:
                raise ParseError(f"{path}: {exc}")
        return list(columns), rows
    reader = csv.reader(io.StringIO(text))
    table = [r for r in reader if r]
    if not table:
        raise ParseError(f"{path} holds no CSV header")
    columns = table[0]
    if len(columns) == 1 and "  " in columns[0]:
        raise ParseError(f"{path} looks like a rendered table, not a CSV data file")
    if len(set(columns)) != len(columns) or any(not c for c in columns):
        raise ParseError(f"{path}: header names must be unique and non-empty")
    rows = []
    for r in table[1:]:
        if len(r) != len(columns):
            raise ParseError(f"{path}: row width {len(r)} != header width {len(columns)}")
        rows.append(dict(zip(columns, r)))
    return columns, rows


def render_table(columns, rows) -> str:
    """Aligned text table; appends margin and pass unless already present."""
    columns = list(columns)
    derive = ("bound" in columns and "measured" in columns
              and "pass" not in columns and "margin" not in columns)
    if derive:
        columns += ["margin", "pass"]
    body = []
    for row in rows:
        cells = dict(row)
        if derive:
            try:
                bound = float(row["bound"])
                measured = float(row["measured"])
            except (ValueError, TypeError):
                raise ParseError(f"non-numeric bound/measured in row {row!r}")
            cells["margin"] = _cell(bound - measured)
            cells["pass"] = "yes" if measured <= bound else "no"
        missing = [c for c in columns if c not in cells or cells[c] == ""]
        if missing:
            raise ParseError(f"row missing columns {missing}")
        body.append([str(cells[c]) for c in columns])
    widths = [max(len(c), *(len(r[j]) for r in body)) if body else len(c)
              for j, c in enumerate(columns)]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(columns), line(["-" * w for w in widths])]
    out.extend(line(r) for r in body)
    return "\n".join(out) + "\n"


def render_summary(data_file: str) -> str:
    """Render a CSV or JSON data file as an aligned pass/fail table."""
    columns, rows = _load_rows(data_file)
    return render_table(columns, rows)


# ---------------------------------------------------------------------------
# Entry point

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvqc-lab",
        description="desk-scale experiments for verifiable delegated computation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cp = sub.add_parser(name, help=f"run the {name} experiment")
        cp.add_argument("--config", default=None, help="JSON file of parameter overrides")
        cp.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE", help="override a single parameter")
        cp.add_argument("--seed", type=int, default=None, required=False)
        cp.add_argument("--out", default=None, help="output data file path")
        cp.add_argument("--format", dest="fmt", choices=FORMATS, default=None)
        if name == "effverify-demo":
            cp.add_argument("--time-bound", dest="time_bound", type=int, default=None)
            cp.add_argument("--trials", type=int, default=None)
    rp = sub.add_parser("render", help="pretty-print a data file")
    rp.add_argument("data_file")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if args.command == "render":
        try:
            sys.stdout.write(render_summary(args.data_file))
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK
    sets = list(args.sets)
    for flag in ("time_bound", "trials"):
        value = getattr(args, flag, None)
        if value is not None:
            sets.append(f"{flag}={value}")
    try:
        cfg = build_config(args.command, seed=args.seed, out=args.out,
                           fmt=args.fmt, config_path=args.config, sets=sets)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
