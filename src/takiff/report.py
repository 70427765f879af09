"""Check reports: small, deterministic, JSON-serializable.

A Report is a flat list of (id, status, witness) records plus an echo
of the configuration that produced it.  Everything placed in a report
is already a string or an int, so serializing twice with the same
config and seed yields byte-identical files; wall-clock timings are
deliberately kept out (the CLI prints them to stderr instead).

The package's records are plain classes with explicit constructors,
not dataclasses: ``dataclasses`` imports ``inspect`` (with ``ast``,
``dis`` and ``tokenize``), and each dataclass execs generated source,
which every process would pay for at ``import takiff``.  ``Frozen`` is
the base of the immutable parameter records: value equality, hashing
and repr over the field names a subclass lists in ``_fields``, and no
assignment.
"""

from . import __version__

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"
INCONCLUSIVE = "INCONCLUSIVE"

_STATUSES = (PASS, FAIL, ERROR, INCONCLUSIVE)

ENGINE = f"takiff {__version__}"


class Frozen:
    """Value equality, hashing and repr over ``_fields``; a subclass
    sets its fields once, through ``__dict__``, and they stay."""

    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__name__}({body})"


class CheckRecord:
    __slots__ = ("id", "status", "witness")

    def __init__(self, id, status, witness=""):
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        self.id, self.status, self.witness = id, status, witness


class Report:
    def __init__(self, suite, config=None):
        self.suite = suite
        self.config = {} if config is None else config
        self.checks = []

    def add(self, check_id, status, witness=""):
        self.checks.append(CheckRecord(check_id, status, witness))

    def verdict(self, check_id, bad, witness=""):
        """FAIL witnessed by bad when bad is set, else PASS with witness."""
        self.add(check_id, FAIL if bad else PASS, bad or witness)

    def extend(self, other):
        self.checks.extend(other.checks)

    def counts(self):
        out = {s: 0 for s in _STATUSES}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def ok(self):
        """True iff nothing failed or errored (INCONCLUSIVE is not a failure)."""
        return all(c.status not in (FAIL, ERROR) for c in self.checks)

    def to_dict(self):
        counts = self.counts()
        return {
            "schema": 1,
            "engine": ENGINE,
            "suite": self.suite,
            "config": dict(sorted(self.config.items())),
            "checks": [
                {"id": c.id, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
            "summary": {s.lower(): counts[s] for s in _STATUSES},
        }

    def render_text(self):
        lines = [f"suite: {self.suite}"]
        for c in self.checks:
            line = f"{c.status:<12} {c.id}"
            if c.witness:
                line += f"  [{c.witness}]"
            lines.append(line)
        counts = self.counts()
        total = ", ".join(f"{counts[s]} {s}" for s in _STATUSES if counts[s])
        lines.append(f"summary: {total or 'no checks'}")
        return "\n".join(lines)
