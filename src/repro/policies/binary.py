"""Zero-copy binary persistence of trained policies.

The JSON schema in :mod:`repro.policies.serialization` is the auditable
interchange format; this module is the *serving* format.  A trained
policy's rule table is packed into three flat numpy arrays — sorted
integer state keys, decided-action ids and expected costs — and written
as one versioned container file that a decision server can memory-map
and query without deserializing anything: lookups are a vectorized
``searchsorted`` against the key column, so a table with millions of
rules costs no load time and no resident memory beyond the pages the
query stream actually touches.

File layout (all integers little-endian)::

    bytes 0..7    magic  b"RPROPOLB"
    bytes 8..11   container version (uint32, currently 1)
    bytes 12..19  header length in bytes (uint64)
    header        UTF-8 JSON: label, vocabularies, array directory
    padding       zeros to the next 64-byte boundary
    data          raw array blobs, each 64-byte aligned

State keys pack ``(error_type, tried...)`` into one ``uint64`` via a
mixed-radix code: with ``B = len(history_actions) + 1`` and ``Lmax`` the
longest rule history, a state maps to ``(et_id * (Lmax + 1) + L) *
B**Lmax + horner(digits)`` where each history action contributes a
nonzero base-``B`` digit.  The code is injective (the high part fixes
the error type and history length, the low part the digits), and the
exporter refuses tables whose key space would overflow 64 bits — at the
paper's scale (4 actions, histories bounded by the N-cap) the bound is
astronomically far away.

Queries outside the vocabularies — an unseen error type, an action name
no rule history contains, or a history longer than ``Lmax`` — cannot
collide with any packed key and are reported as unhandled without a
lookup, which is exactly the semantics the hybrid fallback relies on.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, LogFormatError
from repro.mdp.state import RecoveryState
from repro.policies.base import (
    DecisionBatch,
    Policy,
    PolicyDecision,
    terminal_state_error,
)
from repro.policies.trained import TrainedPolicy, no_rule_error

__all__ = [
    "BINARY_POLICY_FORMAT",
    "ArrayTrainedPolicy",
    "save_policy_binary",
    "load_policy_binary",
]

PathLike = Union[str, Path]

BINARY_POLICY_FORMAT = "repro/policy-bin@1"
_MAGIC = b"RPROPOLB"
_CONTAINER_VERSION = 1
_ALIGN = 64

#: Key space ceiling: keys must fit uint64.
_KEY_LIMIT = 2**64


def _pack_key(
    et_id: int,
    digit_ids: Sequence[int],
    *,
    base: int,
    max_history: int,
) -> int:
    """The mixed-radix state key (python int; caller checks the range)."""
    hist = 0
    for digit in digit_ids:
        hist = hist * base + (digit + 1)
    return (
        et_id * (max_history + 1) + len(digit_ids)
    ) * base**max_history + hist


def _unpack_key(
    key: int,
    *,
    base: int,
    max_history: int,
    error_types: Sequence[str],
    history_actions: Sequence[str],
) -> RecoveryState:
    """Invert :func:`_pack_key` (used for audits and round-trip tests)."""
    span = base**max_history
    high, hist = divmod(key, span)
    et_id, length = divmod(high, max_history + 1)
    digits: List[int] = []
    for _ in range(length):
        hist, digit = divmod(hist, base)
        digits.append(digit - 1)
    digits.reverse()
    return RecoveryState(
        error_type=error_types[et_id],
        healthy=False,
        tried=tuple(history_actions[d] for d in digits),
    )


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def save_policy_binary(policy: TrainedPolicy, path: PathLike) -> int:
    """Write ``policy`` in the zero-copy binary format; returns rule count.

    The write is atomic (temp file + ``os.replace``), so a reader — or a
    decision server hot-reloading from the same path — never observes a
    torn container.
    """
    rules = sorted(
        policy.rules.items(),
        key=lambda item: (item[0].error_type, item[0].tried),
    )
    error_types = sorted({state.error_type for state, _rule in rules})
    history_actions = sorted(
        {name for state, _rule in rules for name in state.tried}
    )
    decided_actions = sorted({action for _state, (action, _c) in rules})
    max_history = max(
        (state.attempt_count for state, _rule in rules), default=0
    )
    base = len(history_actions) + 1
    et_ids = {name: i for i, name in enumerate(error_types)}
    digit_ids = {name: i for i, name in enumerate(history_actions)}
    action_ids = {name: i for i, name in enumerate(decided_actions)}

    # The largest representable key must fit uint64; check once up front
    # instead of per rule.
    worst = _pack_key(
        max(len(error_types) - 1, 0),
        [base - 2] * max_history if history_actions else [],
        base=base,
        max_history=max_history,
    )
    if worst >= _KEY_LIMIT:
        raise ConfigurationError(
            f"policy key space overflows uint64 "
            f"({len(error_types)} error types x base {base} x history "
            f"{max_history}); use the JSON format for tables this wide"
        )

    keys = np.empty(len(rules), dtype=np.uint64)
    actions = np.empty(len(rules), dtype=np.uint32)
    costs = np.empty(len(rules), dtype=np.float64)
    for row, (state, (action, cost)) in enumerate(rules):
        keys[row] = _pack_key(
            et_ids[state.error_type],
            [digit_ids[name] for name in state.tried],
            base=base,
            max_history=max_history,
        )
        actions[row] = action_ids[action]
        costs[row] = cost
    order = np.argsort(keys, kind="stable")
    keys, actions, costs = keys[order], actions[order], costs[order]

    blobs = {
        "keys": keys,
        "actions": actions,
        "costs": costs,
    }
    directory: Dict[str, Dict[str, object]] = {}
    # Offsets are relative to the start of the data section; the loader
    # adds the header-dependent data origin.
    offset = 0
    for name, array in blobs.items():
        offset = _align(offset)
        directory[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
        }
        offset += array.nbytes
    data = bytearray(offset)
    for name, array in blobs.items():
        start = int(directory[name]["offset"])  # type: ignore[arg-type]
        data[start : start + array.nbytes] = array.tobytes()

    header = {
        "format": BINARY_POLICY_FORMAT,
        "label": policy.name,
        "error_types": error_types,
        "history_actions": history_actions,
        "decided_actions": decided_actions,
        "max_history": max_history,
        "rule_count": len(rules),
        "arrays": directory,
        "data_crc32": zlib.crc32(bytes(data)),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix_len = len(_MAGIC) + 4 + 8 + len(header_bytes)
    data_origin = _align(prefix_len)

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(_CONTAINER_VERSION.to_bytes(4, "little"))
        handle.write(len(header_bytes).to_bytes(8, "little"))
        handle.write(header_bytes)
        handle.write(b"\x00" * (data_origin - prefix_len))
        handle.write(bytes(data))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(rules)


def _read_header(path: Path) -> Tuple[Dict[str, object], int]:
    """Parse the container prefix: (header dict, data-section origin)."""
    with open(path, "rb") as handle:
        prefix = handle.read(len(_MAGIC) + 4)
        if len(prefix) < len(_MAGIC) + 4 or prefix[: len(_MAGIC)] != _MAGIC:
            raise LogFormatError(f"{path}: not a repro binary policy file")
        version = int.from_bytes(prefix[len(_MAGIC) :], "little")
        if version != _CONTAINER_VERSION:
            raise LogFormatError(
                f"{path}: unsupported container version {version} "
                f"(this build reads version {_CONTAINER_VERSION})"
            )
        header_len = int.from_bytes(handle.read(8), "little")
        header_bytes = handle.read(header_len)
        if len(header_bytes) != header_len:
            raise LogFormatError(f"{path}: truncated header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LogFormatError(f"{path}: bad header: {exc}") from None
    if header.get("format") != BINARY_POLICY_FORMAT:
        raise LogFormatError(
            f"{path}: expected format {BINARY_POLICY_FORMAT!r}, "
            f"got {header.get('format')!r}"
        )
    return header, _align(len(_MAGIC) + 12 + header_len)


class ArrayTrainedPolicy(Policy):
    """A trained policy served straight from packed arrays.

    Decision-for-decision identical to the :class:`TrainedPolicy` the
    file was saved from: same action, same expected cost, the same
    :class:`~repro.errors.UnhandledStateError` on states the table does
    not cover.  Construct via :func:`load_policy_binary`.
    """

    def __init__(
        self,
        *,
        label: str,
        error_types: Sequence[str],
        history_actions: Sequence[str],
        decided_actions: Sequence[str],
        max_history: int,
        keys: np.ndarray,
        actions: np.ndarray,
        costs: np.ndarray,
        source_path: Optional[Path] = None,
    ) -> None:
        self._label = label
        self._error_types = tuple(error_types)
        self._history_actions = tuple(history_actions)
        self._decided_actions = tuple(decided_actions)
        self._max_history = max_history
        self._base = len(self._history_actions) + 1
        self._et_ids = {name: i for i, name in enumerate(self._error_types)}
        self._digit_ids = {
            name: i for i, name in enumerate(self._history_actions)
        }
        # A state's key splits into an error-type part and a history
        # part: key = et_id * stride + history_code(tried), with
        # history_code = L * B**Lmax + horner(digits) (see _pack_key).
        self._span = self._base**max_history
        self._stride = (max_history + 1) * self._span
        # Per error-type id the key offset, plus a trailing 0 for the
        # rows of states no rule can match.  Offsets stay below the
        # largest key, which the writer checked fits uint64; with two or
        # more error types that bounds the stride by 2**63 as well.
        self._type_offsets = np.zeros(len(self._error_types) + 1, dtype=np.uint64)
        if len(self._error_types) > 1:
            self._type_offsets[:-1] = np.arange(
                len(self._error_types), dtype=np.uint64
            ) * np.uint64(self._stride)
        self._keys = keys
        self._actions = actions
        self._costs = costs
        self._source_path = source_path

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._label

    @property
    def source_path(self) -> Optional[Path]:
        """The container file backing the arrays, when file-backed."""
        return self._source_path

    def __len__(self) -> int:
        return int(self._keys.shape[0])

    def error_types(self) -> Tuple[str, ...]:
        """Error types for which at least one rule exists."""
        return self._error_types

    # ------------------------------------------------------------------
    def _history_code(self, tried: Tuple[str, ...]) -> int:
        """The history part of a key, or -1 when no rule can match it."""
        if len(tried) > self._max_history:
            return -1
        code = 0
        for name in tried:
            digit = self._digit_ids.get(name)
            if digit is None:
                return -1
            code = code * self._base + digit + 1
        return len(tried) * self._span + code

    def _encode(self, state: RecoveryState) -> Optional[int]:
        """``state``'s packed key, or ``None`` when definitionally absent."""
        et_id = self._et_ids.get(state.error_type)
        code = self._history_code(state.tried)
        if et_id is None or code < 0:
            return None
        return et_id * self._stride + code

    def _row_for(self, state: RecoveryState) -> int:
        """The rule row for ``state``, or -1 when unhandled."""
        key = self._encode(state)
        if key is None:
            return -1
        row = int(np.searchsorted(self._keys, np.uint64(key)))
        if row < len(self._keys) and int(self._keys[row]) == key:
            return row
        return -1

    def handles(self, state: RecoveryState) -> bool:
        """Whether a rule exists for ``state``."""
        return self._row_for(state) >= 0

    def expected_cost(self, state: RecoveryState) -> Optional[float]:
        """The rule's predicted remaining cost, if the state is handled."""
        row = self._row_for(state)
        return float(self._costs[row]) if row >= 0 else None

    def decide(self, state: RecoveryState) -> PolicyDecision:
        if state.is_terminal:
            raise terminal_state_error(state)
        row = self._row_for(state)
        if row < 0:
            raise no_rule_error(state)
        return PolicyDecision(
            action=self._decided_actions[int(self._actions[row])],
            source=self.name,
            expected_cost=float(self._costs[row]),
        )

    def decide_batch(self, states: Sequence[RecoveryState]) -> DecisionBatch:
        """One pass over the states, then one vectorized key search.

        The pass reads each state's error-type id and history code;
        numpy then adds the key parts, searches the sorted key column
        and gathers actions and costs.
        """
        type_ids = self._et_ids
        unknown = len(self._error_types)
        history_code = self._history_code
        types: List[int] = []
        codes: List[int] = []
        for state in states:
            if state.is_terminal:
                raise terminal_state_error(state)
            code = history_code(state.tried)
            if code < 0:
                types.append(unknown)
                codes.append(0)
            else:
                types.append(type_ids.get(state.error_type, unknown))
                codes.append(code)
        type_column = np.array(types, dtype=np.intp)
        keys = self._type_offsets[type_column] + np.array(codes, dtype=np.uint64)
        # Unknown rows miss without a lookup; on an empty table every
        # error type is unknown, so the gathers below never run.
        hit = type_column != unknown
        action_ids = np.zeros(len(keys), dtype=np.intp)
        costs = np.zeros(len(keys), dtype=np.float64)
        if hit.any():
            rows = np.searchsorted(self._keys, keys)
            np.minimum(rows, len(self._keys) - 1, out=rows)
            hit &= self._keys[rows] == keys
            action_ids = self._actions[rows].astype(np.intp)
            costs = self._costs[rows]
        return DecisionBatch(
            hit=hit,
            action_ids=action_ids,
            actions=self._decided_actions,
            costs=costs,
            estimated=hit,
            source_ids=np.zeros(len(keys), dtype=np.intp),
            sources=(self.name,),
            miss=lambda row: no_rule_error(states[row]),
        )

    def state_at(self, row: int) -> RecoveryState:
        """Decode the state of rule ``row`` (0-based, key order).

        Lets samplers (the query-storm load generator) draw known
        states without materializing the whole table.
        """
        if not 0 <= row < len(self._keys):
            raise ConfigurationError(
                f"rule row {row} out of range [0, {len(self._keys)})"
            )
        return _unpack_key(
            int(self._keys[row]),
            base=self._base,
            max_history=self._max_history,
            error_types=self._error_types,
            history_actions=self._history_actions,
        )

    # ------------------------------------------------------------------
    def to_trained(self) -> TrainedPolicy:
        """Materialize the packed table back into a :class:`TrainedPolicy`.

        Used by audits and the differential round-trip suite; serving
        never needs it.
        """
        rules: Dict[RecoveryState, Tuple[str, float]] = {}
        for row in range(len(self._keys)):
            state = _unpack_key(
                int(self._keys[row]),
                base=self._base,
                max_history=self._max_history,
                error_types=self._error_types,
                history_actions=self._history_actions,
            )
            rules[state] = (
                self._decided_actions[int(self._actions[row])],
                float(self._costs[row]),
            )
        return TrainedPolicy(rules, label=self._label)


def load_policy_binary(
    path: PathLike, *, mmap: bool = True, verify: bool = False
) -> ArrayTrainedPolicy:
    """Load a policy saved by :func:`save_policy_binary`.

    With ``mmap=True`` (the default) the arrays are memory-mapped
    read-only: nothing beyond the header is read until queries touch it,
    and concurrent server workers share one set of physical pages.
    ``mmap=False`` reads the arrays into private memory instead —
    preferable when the file may be replaced *in place* by something
    other than this module's atomic writer.  ``verify=True`` checks the
    data section against the stored CRC-32 first (reads every page).
    """
    path = Path(path)
    header, data_origin = _read_header(path)
    try:
        directory = header["arrays"]
        rule_count = int(header["rule_count"])
        arrays: Dict[str, np.ndarray] = {}
        for name in ("keys", "actions", "costs"):
            spec = directory[name]
            dtype = np.dtype(str(spec["dtype"]))
            shape = tuple(int(n) for n in spec["shape"])
            offset = data_origin + int(spec["offset"])
            if mmap:
                arrays[name] = np.memmap(
                    path, dtype=dtype, mode="r", offset=offset, shape=shape
                )
            else:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    raw = handle.read(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
                arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
        policy = ArrayTrainedPolicy(
            label=str(header["label"]),
            error_types=[str(s) for s in header["error_types"]],
            history_actions=[str(s) for s in header["history_actions"]],
            decided_actions=[str(s) for s in header["decided_actions"]],
            max_history=int(header["max_history"]),
            keys=arrays["keys"],
            actions=arrays["actions"],
            costs=arrays["costs"],
            source_path=path,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise LogFormatError(f"{path}: bad header field: {exc}") from None
    if len(policy) != rule_count:
        raise LogFormatError(
            f"{path}: rule_count {rule_count} does not match key column "
            f"length {len(policy)}"
        )
    if verify:
        expected = int(header["data_crc32"])
        size = path.stat().st_size
        with open(path, "rb") as handle:
            handle.seek(data_origin)
            actual = zlib.crc32(handle.read(size - data_origin))
        if actual != expected:
            raise LogFormatError(
                f"{path}: data checksum mismatch "
                f"(stored {expected}, computed {actual})"
            )
    return policy
