"""JSON schemas of the job API: payload in, FleetSpec out.

``POST /jobs`` accepts exactly the knobs ``repro fleet`` accepts, as a
JSON object; this module is the single place that vocabulary is
defined, validated, and turned into a :class:`repro.fleet.FleetSpec`.
Validation failures raise :class:`repro.errors.EvaluationError` with a
one-line, field-naming message — the server maps them to HTTP 400.

Mix entries — including parameterized governor and scenario specs like
``thermal(cap_mhz=1100)`` — are validated by
:func:`repro.fleet.parse_mix` via the policy/scenario registries; this
module only checks the payload's shape.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import EvaluationError
from repro.fleet import FLEET_DEFAULTS, FleetSpec, default_mix, parse_mix

#: The FleetSpec fields a payload carries as they are (``sessions`` and
#: ``mix`` have payload-only defaults).
_SPEC_KEYS = ("seed", "shard_size", "max_retries", "shard_timeout_s", "settle_s")

#: Recognised ``POST /jobs`` payload keys and their defaults (the
#: ``repro fleet`` CLI defaults, both read off :class:`FleetSpec`).
PAYLOAD_DEFAULTS: dict = {
    "sessions": 100,
    "mix": None,  # None -> default_mix()
    **{key: FLEET_DEFAULTS[key] for key in _SPEC_KEYS},
    # Scheduling priority: higher claims a lane sooner; ties run in
    # admission order.  Never part of the FleetSpec (or its
    # fingerprint) — it orders execution, it cannot change results.
    "priority": 0,
}

#: accepted ``priority`` range (inclusive)
PRIORITY_MIN, PRIORITY_MAX = -10, 10


def _require_int(payload: dict, key: str) -> int:
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise EvaluationError(f"job field {key!r} must be an integer, got {value!r}")
    return value


def _require_number(payload: dict, key: str) -> float:
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluationError(f"job field {key!r} must be a number, got {value!r}")
    return float(value)


def normalize_job_payload(payload: object) -> dict:
    """Validate a ``POST /jobs`` body and fill in defaults.

    The returned dict is the *canonical* payload: every key present,
    mix as a single grammar string (or None for the default mix).  It
    is what the job store persists, so a daemon restarted months later
    rebuilds the exact same :class:`FleetSpec` from it.
    """
    if not isinstance(payload, dict):
        raise EvaluationError(
            f"job spec must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(PAYLOAD_DEFAULTS))
    if unknown:
        raise EvaluationError(
            f"unknown job field(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(PAYLOAD_DEFAULTS))}"
        )
    merged = dict(PAYLOAD_DEFAULTS, **payload)

    mix = merged["mix"]
    if mix is not None:
        if isinstance(mix, list):
            if not all(isinstance(item, str) for item in mix):
                raise EvaluationError("job field 'mix' list items must be strings")
            mix = ",".join(mix)
        if not isinstance(mix, str):
            raise EvaluationError(
                f"job field 'mix' must be a string or list of strings, got {mix!r}"
            )
        merged["mix"] = mix

    for key in ("sessions", "seed", "shard_size", "max_retries", "priority"):
        merged[key] = _require_int(merged, key)
    if not PRIORITY_MIN <= merged["priority"] <= PRIORITY_MAX:
        raise EvaluationError(
            f"job field 'priority' must be in [{PRIORITY_MIN}, "
            f"{PRIORITY_MAX}], got {merged['priority']}"
        )
    for key in ("shard_timeout_s", "settle_s"):
        merged[key] = _require_number(merged, key)
    # Build the spec once now purely for validation: a bad mix string or
    # out-of-range value must 400 at submit time, not fail the job later.
    build_fleet_spec(merged)
    return merged


def build_fleet_spec(payload: dict, inject_crash: Optional[dict] = None) -> FleetSpec:
    """Turn a canonical payload into a :class:`FleetSpec`.

    ``inject_crash`` is the test-only fault hook (see
    :class:`repro.fleet.FleetSpec`); it is execution state, never part
    of the persisted payload or the spec fingerprint, so a daemon
    restarted *without* the hook resumes the same job cleanly.
    """
    mix = payload["mix"]
    return FleetSpec(
        sessions=payload["sessions"],
        mix=parse_mix(mix) if mix else default_mix(),
        inject_crash=inject_crash,
        **{key: payload[key] for key in _SPEC_KEYS},
    )
