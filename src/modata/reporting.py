"""Check records and run reports shared by the verification suites and CLI."""

import json
from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    """Outcome of one named identity or property check.

    `params` carries the inputs the check ran with (label indices, Galois
    index, sample counts, ...); `witness` holds a human-readable
    counterexample or note, empty when the check simply passed.
    """

    suite: str
    check: str
    passed: bool
    params: dict = field(default_factory=dict)
    witness: str = ""

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "check": self.check,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "pass": self.passed,
            "witness": self.witness,
        }

    def human_line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        tail = f"  [{self.witness}]" if self.witness else ""
        return f"{status:4}  {self.suite}.{self.check}  {params}{tail}"


def first_failure(suite: str, check: str, failures, **params) -> CheckRecord:
    """A record that passes when `failures` yields no witness and otherwise
    fails with the first one.

    `failures` is a lazy iterable of witness strings, typically a generator
    expression over the check's search space; nothing past the first
    witness is evaluated.
    """
    witness = next(iter(failures), None)
    return CheckRecord(suite, check, witness is None, params, witness or "")


def notice(suite: str, check: str, message: str, **params) -> CheckRecord:
    """A passing record that documents a skip or a configured convention."""
    return CheckRecord(suite, check, True, params, message)


@dataclass
class RunReport:
    """Deterministic result of one CLI invocation."""

    version: str
    model: str
    config: dict
    records: list = field(default_factory=list)

    def extend(self, records):
        self.records.extend(records)

    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        obj = {
            "version": self.version,
            "model": self.model,
            "config": {k: str(v) for k, v in sorted(self.config.items())},
            "records": [r.to_obj() for r in self.records],
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def human_text(self) -> str:
        lines = [f"model: {self.model}"]
        lines += [
            f"config: {k}={v}" for k, v in sorted(self.config.items())
        ]
        lines += [r.human_line() for r in self.records]
        n_fail = sum(1 for r in self.records if not r.passed)
        lines.append(
            f"{len(self.records)} checks, {n_fail} failed"
            if n_fail
            else f"{len(self.records)} checks, all passed"
        )
        return "\n".join(lines)
