"""Request lists of the three benchmark workloads, generated from a seed.

Generation is pure Python and imports nothing from modata, so the request
list of a seed can be inspected and tested without running a request.  A
request is a dict with

- ``kind``: what the request does (see ``child.execute``);
- ``key``: a seed-independent name, used to look up the number of check
  records the request must return (``expected_records.json``);
- the arguments of the request.

The seed permutes request order in every workload and chooses the CLI
``--seed`` values of the ``cli-sampling`` workload; the set of keys is the
same for every seed.
"""

import random
from fractions import Fraction

WORKLOADS = ("catalog", "fractional", "cli-sampling")

#: Models whose two verify requests make up the catalog workload.
CATALOG_MODELS = tuple(f"su2:{k}" for k in (1, 2, 3, 4, 5, 6, 7, 8, 10)) + tuple(
    f"cyclic_odd:{n}" for n in (3, 5, 7, 9, 11)
)
#: Models whose fusion rows the catalog workload evaluates by Verlinde sums.
FUSION_MODELS = ("su2:1", "su2:2", "su2:3", "su2:4",
                 "cyclic_odd:3", "cyclic_odd:5", "cyclic_odd:9")
#: Models the fractional workload builds during set-up.
FRACTIONAL_MODELS = ("su2:1", "su2:2", "su2:3")
ORBIFOLD_MODELS = ("su2:1", "su2:2")
ORBIFOLD_ORDERS = (2, 3, 5, 7, 9, 15)
HAT_PAIRS = ((2, 1), (3, 1), (3, 2), (5, 2))
#: Galois indices per model: four units modulo the model's conductor
#: (24 for su2:1 and su2:4, 16 for su2:2, 12 for cyclic_odd:3), so no
#: request of the cli-sampling workload reports a skip.
GALOIS_L = {
    "su2:1": "5,7,11,13",
    "su2:2": "3,5,7,9",
    "cyclic_odd:3": "5,7,11,13",
    "su2:4": "5,7,11,13",
}
GALOIS_SEEDS = {"su2:1": 28, "su2:2": 28, "cyclic_odd:3": 28, "su2:4": 8}


def model_rank(spec: str) -> int:
    name, _, param = spec.partition(":")
    return int(param) + 1 if name == "su2" else int(param)


def _catalog():
    reqs = []
    for spec in CATALOG_MODELS:
        reqs.append({"kind": "verify-builtin", "key": f"verify-builtin {spec}",
                     "model": spec})
        reqs.append({"kind": "verify-file", "key": f"verify-file {spec}",
                     "model": spec})
    for spec in FUSION_MODELS:
        rank = model_rank(spec)
        for lam in range(rank):
            for mu in range(rank):
                reqs.append({"kind": "fusion-row",
                             "key": f"fusion-row {spec} {lam} {mu}",
                             "model": spec, "lam": lam, "mu": mu})
    return reqs


def _fractional():
    reqs = []
    args = sorted({Fraction(a, n) for n in range(2, 11) for a in range(1, n)})
    for spec in FRACTIONAL_MODELS:
        for r in args:
            reqs.append({"kind": "lambda-identities",
                         "key": f"lambda-identities {spec} {r}",
                         "model": spec, "r": str(r)})
        for k, n in HAT_PAIRS:
            reqs.append({"kind": "hat-functional",
                         "key": f"hat-functional {spec} {k} {n}",
                         "model": spec, "k": k, "n": n})
    for spec in ORBIFOLD_MODELS:
        for order in ORBIFOLD_ORDERS:
            for kind in ("orbifold-consistency", "orbifold-charges",
                         "orbifold-index"):
                reqs.append({"kind": kind, "key": f"{kind} {spec} {order}",
                             "model": spec, "order": order})
    return reqs


def _cli(rng: random.Random):
    reqs = []

    def add(argv, key_argv=None):
        key = " ".join(key_argv or argv)
        reqs.append({"kind": "cli", "key": f"cli {key}", "argv": argv})

    for spec, count in GALOIS_SEEDS.items():
        for s in rng.sample(range(1, 1 << 30), count):
            base = ["galois", "--model", spec, "--l", GALOIS_L[spec],
                    "--samples", "10", "--seed"]
            add(base + [str(s), "--json"], base + ["S", "--json"])
    for spec in ("su2:1", "su2:2", "su2:3", "cyclic_odd:3"):
        add(["verify", "--model", spec, "--json"])
    for a in range(1, 5):
        add(["lambda", "--model", "su2:2", f"--r={a}/5", "--hat", "--json"])
    for order in (2, 3, 5, 7):
        add(["orbifold", "--model", "su2:1", "--order", str(order), "--json"])
    return reqs


def _keep_file_after_builtin(reqs):
    # A verify-file request loads the model its verify-builtin request
    # built, so it must come later in the order.
    pos = {}
    for i, req in enumerate(reqs):
        if req["kind"] in ("verify-builtin", "verify-file"):
            pos.setdefault(req["model"], {})[req["kind"]] = i
    for where in pos.values():
        i, j = where["verify-builtin"], where["verify-file"]
        if j < i:
            reqs[i], reqs[j] = reqs[j], reqs[i]


def requests(workload: str, seed: int) -> list[dict]:
    """The ordered request list of `workload` for `seed`, ids 0, 1, ..."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "catalog":
        reqs = _catalog()
    elif workload == "fractional":
        reqs = _fractional()
    elif workload == "cli-sampling":
        reqs = _cli(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    _keep_file_after_builtin(reqs)
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs
