"""The cli_session workload: one fresh ``mw-slice`` process per request.

Requests run one at a time (a closed loop with one client).  The stream is a
fixed rotation of ``CYCLE`` slots whose parameters the seed draws, so every
run sees the same mix of subcommands.  One slot in twenty is a malformed
input that must end with the documented exit code 2.

A request is correct when it exits with the expected code and its output
(the JSON ``result``, or the table line) matches the answer the generator
fixed.  ``mw-verify`` replays the certificate the preceding ``mw-derive``
wrote; the benchmark extracts the ``result`` object into the file it reads,
as the README does.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import time

from refarith import RefField

TMP = "@TMP@"
CYCLES = 60  # 1200 requests: more than a 30 s run could send at 25 ms a request
REQUEST_TIMEOUT_S = 60
SMALL_PRIMES = (3, 5, 7, 11, 13)
QUADRATIC = ((9, 3), (25, 5), (49, 7))

CYCLE = (
    "gw-json", "witt-table", "normalize-big", "derive-small", "verify",
    "filtration-json", "graded-json", "gw-table", "normalize-real", "derive-big",
    "verify", "convergence", "moore", "transfer-finite", "transfer-projection",
    "filtration-table", "witt-json", "transfer-complex", "graded-table", "malformed",
)
MALFORMED = ("bad-field-literal", "not-prime-power", "units-not-summing-to-one",
             "derivation-missing-keys")

# Wrong-shape derivation JSON on which mw-verify escapes with a traceback
# instead of exit code 2.  Run after the timed window; see NOTES.md.
KNOWN_DEFECTS = {
    "json-top-level-list": [1],
    "json-top-level-string": "x",
    "json-top-level-null": None,
    "json-step-not-object": {"field": "Fq(7)", "start": "[3]*[5]", "end": "0", "steps": [1]},
    "json-field-not-string": {"field": 7, "start": "0", "end": "0", "steps": []},
}

# -- generator ----------------------------------------------------------------


class _Gen:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"cli_session:{seed}")
        self.refs = {q: RefField(q) for q in (10007, 9, 25, 49) + SMALL_PRIMES}

    # small-field forms: (field literal, entries, expected GW coordinates)
    def small_form(self):
        rng = self.rng
        kind = rng.choice(("finite", "finite", "R", "C"))
        rank = rng.randint(1, 5)
        if kind == "finite":
            q = rng.choice(SMALL_PRIMES)
            ref = self.refs[q]
            entries = [rng.randint(1, q - 1) for _ in range(rank)]
            dd = sum(0 if ref.is_square(a) else 1 for a in entries) % 2
            return f"Fq({q})", q, entries, {"rank": rank, "disc_dev": dd}
        entries = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(rank)]
        if kind == "R":
            sig = sum(1 if a > 0 else -1 for a in entries)
            return "R", None, entries, {"rank": rank, "signature": sig}
        return "C", None, entries, {"rank": rank}

    def gw(self, table: bool) -> dict:
        label, _, entries, want = self.small_form()
        form = "<" + ",".join(map(str, entries)) + ">"
        args = ["gw", "--field", label, "--form", form]
        if table:
            if label == "R":
                text = f"(rank {want['rank']}, signature {want['signature']})"
            elif label == "C":
                text = f"(rank {want['rank']})"
            else:
                text = f"(rank {want['rank']}, disc_dev {want['disc_dev']})"
            return {"args": args, "stdout": f"GW class of {form} over {label}: {text}"}
        return {"args": ["--output", "json"] + args, "result": want}

    def witt(self, table: bool) -> dict:
        label, q, entries, want = self.small_form()
        form = "<" + ",".join(map(str, entries)) + ">"
        if label == "R":
            coords = [want["signature"]]
            text = f"signature {coords[0]}"
        elif label == "C":
            coords = [want["rank"] % 2]
            text = f"{coords[0]} in Z/2"
        else:
            coords = [(want["rank"] + 2 * want["disc_dev"]) % 4] if q % 4 == 3 else \
                [want["rank"] % 2, want["disc_dev"]]
            text = f"{coords[0]} in Z/4" if q % 4 == 3 else f"({coords[0]}, {coords[1]}) in Z/2+Z/2"
        args = ["witt", "--field", label, "--form", form]
        if table:
            return {"args": args, "stdout": f"Witt class of {form} over {label}: {text}"}
        return {"args": ["--output", "json"] + args, "result": {"coords": coords}}

    def normalize_big(self) -> dict:
        rng, ref = self.rng, self.refs[10007]
        ks = rng.sample(range(ref.q - 1), rng.randint(1, 3))
        cs = [rng.choice((-2, -1, 1, 2)) for _ in ks]
        expr = " + ".join(f"{c}*[g^{k}]" for c, k in zip(cs, ks)).replace("+ -", "- ")
        e = sum(c * k for c, k in zip(cs, ks)) % (ref.q - 1)
        want = {"degree": 1, "unit_class": str(ref.exp[e]), "ideal_bit": e % 2, "zero": e == 0}
        return {"args": ["--output", "json", "mw-normalize", "--field", "Fq(10007)",
                         f"--expr={expr}"], "result": want}

    def normalize_real(self) -> dict:
        a = self.rng.choice((-1, 1)) * self.rng.randint(1, 9)
        b = self.rng.randint(1, 5)
        want = {"degree": 0, "zero": False,
                "gw": {"field": "R", "rank": 1, "signature": 1 if a > 0 else -1}}
        return {"args": ["--output", "json", "mw-normalize", "--field", "R",
                         "--expr", f"1 + eta*[{a}/{b}]"], "result": want}

    def derive(self, q: int, index: int) -> dict:
        rng, ref = self.rng, self.refs[q]
        length = rng.randint(2, 4)
        while True:
            units = [rng.randint(1, q - 1) for _ in range(length - 1)]
            last = (1 - sum(units)) % q
            if last:
                units.append(last)
                break
        start = "*".join(f"[g^{ref.log[u]}]" for u in units)
        path = f"{TMP}/cert-{index}.json"
        return {"args": ["--output", "json", "mw-derive", "--field", f"Fq({q})",
                         "--units", ",".join(map(str, units)), "--out", path],
                "result": {"start": start, "end": "0"}, "certificate": {"verified": True},
                "writes": path}

    def verify(self, cert_path: str, index: int) -> dict:
        path = f"{TMP}/derivation-{index}.json"
        return {"args": ["--output", "json", "mw-verify", "--derivation", path],
                "result": {"verified": True}, "extract": [cert_path, path]}

    def degree_zero_query(self):
        label = self.rng.choice(("R", "C", "Fq(3)", "Fq(5)", "Fq(7)", "Fq(9)"))
        p = self.rng.randint(-2, 2)
        n = self.rng.randint(p - 2, p + 4)
        return label, n, p

    @staticmethod
    def level_size(label: str, big_n: int):
        """I^N in GW: full, then I = Z/2 and I^2 = 0 (finite), index 2^(N-1) (R), 0 (C)."""
        if big_n == 0:
            return "full"
        if label == "R":
            return {"index": 2 ** (big_n - 1)}
        if label == "C" or big_n >= 2:
            return "zero"
        return {"order": 2}

    def filtration(self, table: bool) -> dict:
        label, n, p = self.degree_zero_query()
        big_n = max(0, n - p)
        if table:
            return {"args": ["filtration", "--field", label, "--n", str(n), "--p", str(p),
                             "--q", str(p)], "stdout_line": f"  N = {big_n}"}
        return {"args": ["--output", "json", "filtration", "--field", label, "--n", str(n),
                         "--p", str(p), "--q", str(p)],
                "result": {"N": big_n}, "size": self.level_size(label, big_n)}

    def graded(self, table: bool) -> dict:
        label, n, p = self.degree_zero_query()
        if n < p:
            shape = "0"
        elif n == p:
            shape = "Z"
        elif label == "R" or (label != "C" and n - p == 1):
            shape = "Z/2"
        else:
            shape = "0"
        args = ["graded", "--field", label, "--n", str(n), "--p", str(p), "--q", str(p)]
        if table:
            return {"args": args, "stdout": f"gr^{n} = F^{n}/F^{n + 1} = {shape}"}
        order = {"0": 1, "Z": None, "Z/2": 2}[shape]
        return {"args": ["--output", "json"] + args, "result": {"graded": shape, "order": order}}

    def convergence(self) -> dict:
        label = self.rng.choice(("R", "C", "Fq(3)", "Fq(7)", "Fq(25)"))
        cutoff = self.rng.randint(4, 12)
        kind = {"R": "nonzero signatures have bounded dyadic valuation", "C": "I = 0"}.get(
            label, "I^2 = 0")
        return {"args": ["--output", "json", "convergence", "--field", label,
                         "--cutoff", str(cutoff)],
                "result": {"separated": True}, "certificate": {"kind": kind}}

    def moore(self) -> dict:
        label = self.rng.choice(("R", "R", "C", "Fq(7)", "Fq(9)"))
        ell = self.rng.choice((3, 5, 7, 11, 13))
        n = self.rng.randint(0, 5)
        if n == 0:
            image = f"full GW/{ell}"
        else:
            image = f"Z/{ell}" if label == "R" else "0"
        return {"args": ["--output", "json", "moore", "--field", label, "--ell", str(ell),
                         "--n", str(n)], "result": {"image": image}}

    def transfer_finite(self) -> dict:
        top, base = self.rng.choice(QUADRATIC)
        ks = [self.rng.randrange(top - 1) for _ in range(self.rng.randint(1, 3))]
        # Tr<a> for a quadratic extension has discriminant (field disc) * N(a):
        # a nonsquare times the square class of a.
        dd = sum(1 + k for k in ks) % 2
        form = "<" + ",".join(f"g^{k}" for k in ks) + ">"
        return {"args": ["--output", "json", "transfer", "--ext", f"Fq({top})/Fq({base})",
                         "--form", form],
                "result": {"rank": 2 * len(ks), "disc_dev": dd, "field": f"Fq({base})"}}

    def transfer_complex(self) -> dict:
        entries = [self.rng.choice((-1, 1)) * self.rng.randint(1, 9) for _ in range(
            self.rng.randint(1, 3))]
        form = "<" + ",".join(map(str, entries)) + ">"
        return {"args": ["--output", "json", "transfer", "--ext", "C/R", "--form", form],
                "result": {"rank": 2 * len(entries), "signature": 0, "field": "R"}}

    def transfer_projection(self) -> dict:
        ext = self.rng.choice(("Fq(9)/Fq(3)", "C/R", "Fq(25)/Fq(5)"))
        bound = self.rng.randint(2, 4)
        return {"args": ["--output", "json", "transfer", "--ext", ext, "--check", "projection",
                         "--rank-bound", str(bound)], "result": {"ok": True}}

    def malformed(self, cls: str, index: int) -> dict:
        rng = self.rng
        if cls == "bad-field-literal":
            label = rng.choice(("Fq(x)", "Q", "Fq()", "F7"))
            args = ["gw", "--field", label, "--form", "<1>"]
        elif cls == "not-prime-power":
            q = rng.choice((15, 21, 45, 99, 1001))
            args = ["witt", "--field", f"Fq({q})", "--form", "<1,1>"]
        elif cls == "units-not-summing-to-one":
            q = rng.choice(SMALL_PRIMES)
            units = [rng.randint(1, q - 1) for _ in range(rng.randint(2, 3))]
            if sum(units) % q == 1:
                units[0] = units[0] % (q - 1) + 1
            args = ["mw-derive", "--field", f"Fq({q})", "--units", ",".join(map(str, units))]
        else:
            path = f"{TMP}/malformed-{index}.json"
            content = rng.choice(({}, {"field": "Fq(7)"}, {"field": "Fq(7)", "start": "0"},
                                  {"field": "Fq(7)", "start": "[3]*[5]", "end": "0",
                                   "steps": [{"rule": "R-one"}]}))
            return {"args": ["mw-verify", "--derivation", path], "exit": 2,
                    "content": [path, content]}
        return {"args": args, "exit": 2}


# slot -> request, given the generator, the request's index and the path of
# the last certificate written
_SLOTS = {
    "gw-json": lambda g, i, cert: g.gw(table=False),
    "gw-table": lambda g, i, cert: g.gw(table=True),
    "witt-json": lambda g, i, cert: g.witt(table=False),
    "witt-table": lambda g, i, cert: g.witt(table=True),
    "normalize-big": lambda g, i, cert: g.normalize_big(),
    "normalize-real": lambda g, i, cert: g.normalize_real(),
    "derive-small": lambda g, i, cert: g.derive(g.rng.choice((7, 11, 13)), i),
    "derive-big": lambda g, i, cert: g.derive(10007, i),
    "verify": lambda g, i, cert: g.verify(cert, i),
    "filtration-json": lambda g, i, cert: g.filtration(table=False),
    "filtration-table": lambda g, i, cert: g.filtration(table=True),
    "graded-json": lambda g, i, cert: g.graded(table=False),
    "graded-table": lambda g, i, cert: g.graded(table=True),
    "convergence": lambda g, i, cert: g.convergence(),
    "moore": lambda g, i, cert: g.moore(),
    "transfer-finite": lambda g, i, cert: g.transfer_finite(),
    "transfer-complex": lambda g, i, cert: g.transfer_complex(),
    "transfer-projection": lambda g, i, cert: g.transfer_projection(),
}


def generate(seed: int, cycles: int = CYCLES) -> list[dict]:
    gen = _Gen(seed)
    out: list[dict] = []
    last_cert = None
    for c in range(cycles):
        for slot in CYCLE:
            i = len(out)
            if slot == "malformed":
                cls = MALFORMED[(c + seed) % len(MALFORMED)]
                req = gen.malformed(cls, i)
                slot = f"malformed:{cls}"
            else:
                req = _SLOTS[slot](gen, i, last_cert)
            last_cert = req.get("writes", last_cert)
            req.setdefault("exit", 0)
            req["class"] = slot
            out.append(req)
    return out


# -- running ------------------------------------------------------------------


def spawn(argv: list[str], env: dict, out_path: str, err_path: str,
          timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, int, float]:
    """Run argv to completion; returns (exit code, max RSS in KiB, seconds)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        fd = os.pidfd_open(pid)
        try:
            if not select.select([fd], [], [], timeout)[0]:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
        finally:
            os.close(fd)
    finally:
        _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss, elapsed


def check(req: dict, code: int, stdout: str, stderr: str) -> str | None:
    """None when the request behaved as expected, else the reason it failed."""
    if code != req["exit"]:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {code}, expected {req['exit']}: {tail[0]}"
    if req["exit"] == 2:
        return None if "error" in stderr else "exit 2 without an error message"
    if "stdout" in req:
        got = stdout.strip()
        return None if got == req["stdout"] else f"stdout {got!r}"
    if "stdout_line" in req:
        return None if req["stdout_line"] in stdout.splitlines() else f"stdout {stdout!r}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"not JSON: {stdout[:80]!r}"
    try:
        for section in ("result", "certificate"):
            for key, want in req.get(section, {}).items():
                got = payload.get(section, {}).get(key)
                if got != want:
                    return f"{section}.{key} = {got!r}, expected {want!r}"
        if "size" in req and payload["result"]["subgroup"]["size"] != req["size"]:
            return f"subgroup size {payload['result']['subgroup']['size']!r}"
    except (AttributeError, KeyError, TypeError) as exc:
        return f"output of the wrong shape ({type(exc).__name__}: {exc}): {stdout[:80]!r}"
    return None


class Session:
    """Runs requests one after another in fresh interpreters."""

    def __init__(self, root: str, tmp: str, child_argv: list[str]) -> None:
        self.tmp = tmp
        self.child_argv = child_argv
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.max_rss_kib = 0

    def _path(self, text: str) -> str:
        return text.replace(TMP, self.tmp)

    def prepare(self, req: dict) -> None:
        """Untimed file work a request needs before it runs."""
        if "extract" in req:
            src, dst = (self._path(p) for p in req["extract"])
            try:
                with open(src, encoding="utf-8") as fh:
                    result = json.load(fh)["result"]
            except (OSError, ValueError, KeyError):
                result = None  # the derive failed; the verify will fail too
            with open(dst, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
        if "content" in req:
            path, content = req["content"]
            with open(self._path(path), "w", encoding="utf-8") as fh:
                json.dump(content, fh)

    def run(self, req: dict) -> tuple[float, str | None]:
        """Run one request; returns (latency in seconds, failure reason or None)."""
        self.prepare(req)
        out_path = os.path.join(self.tmp, "stdout.txt")
        err_path = os.path.join(self.tmp, "stderr.txt")
        argv = self.child_argv + [self._path(a) for a in req["args"]]
        code, rss, elapsed = spawn(argv, self.env, out_path, err_path)
        self.max_rss_kib = max(self.max_rss_kib, rss)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return elapsed, check(req, code, stdout, stderr)


def subcommand(req: dict) -> str:
    args = req["args"]
    return args[2] if args[0] == "--output" else args[0]


def probe_known_defects(session: Session) -> dict[str, str | None]:
    """Each known-defect input class with its failure, or None if it now exits 2.

    The session must run the plain CLI, without the tracer.
    """
    out = {}
    for cls, content in KNOWN_DEFECTS.items():
        path = f"{TMP}/defect-{cls}.json"
        req = {"args": ["mw-verify", "--derivation", path], "exit": 2, "content": [path, content]}
        out[cls] = session.run(req)[1]
    return out
