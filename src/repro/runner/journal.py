"""Atomic per-campaign journals: crash-safe progress records and ``--resume``.

A journal is one append-only JSONL file per campaign.  The first line is a
**header** pinning everything that determines the campaign's output -- the
resolved spec hash, scenario name and version, master seed, trials, unit
count, and the active execution environment (graph backend / wave width /
popcount policy, the same knobs :meth:`repro.runner.spec.WorkUnit.key_material`
folds into cache keys).  Every completed work unit appends one
``{"unit": index, "metrics": {...}}`` record (flushed immediately, so a
SIGKILL mid-campaign loses at most the record in flight), and a finished
campaign appends a ``{"complete": true}`` marker.

Schema v3 (``repro.runner/journal.v3``) also carries **sub-unit
checkpoint records**: a long-running unit whose exact path-metric
checkpoints run in the parent process appends one
``{"ckpt": key, "span": [a, b], "state": {...}}`` record per completed
checkpoint *shard* -- the serialized int64 eccentricity-max / distance-sum
accumulators of :func:`repro.graphs.fast.accumulate_path_shard`.  A shard's
accumulators depend only on the checkpoint's CSR snapshot, its source set
and the shard's source span, so the record is keyed by that content alone:
``key`` is :func:`repro.graphs.fast.accumulator_state_key` of the snapshot
and source set.  ``--resume`` then re-enters a partially-finished unit:
when the re-run reaches a checkpoint whose content key and span match a
journaled record, the saved accumulators are reloaded instead of recomputed
(integer exactness makes the merge order-free, so the resumed aggregates
stay **bit-identical** to an uninterrupted run), and at most one checkpoint
shard of work is lost.  Journals of older schemas are refused.

``python -m repro.runner run --resume`` replays the recorded units verbatim
-- JSON round-trips IEEE doubles exactly, and the executor drains results
in unit-schedule order either way.  Resume refuses a journal whose header
does not match the current campaign (different spec, scenario version, or
execution environment) with a :class:`~repro.core.errors.ConfigError`
naming the mismatched fields.

Crash tolerance on load: a process killed mid-append can leave one
truncated trailing line; it is dropped (with a warning) and the record
simply recomputes.  Anything undecodable *before* the end means real
corruption and fails loudly.  Filesystem **pressure** never fails a
campaign: a journal append the filesystem refuses (``ENOSPC``, read-only
root...) logs one warning, counts ``runner.journal.write_failed`` and
degrades the rest of the campaign to un-journaled execution -- mirroring
:meth:`repro.runner.cache.ResultCache.put` -- and an oversized checkpoint
state (above :data:`STATE_LIMIT` bytes) is dropped with a logged fallback
to unit-granularity journaling instead of bloating the journal.
"""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.obs.telemetry import current as _telemetry
from repro.runner.spec import environment_pins

logger = logging.getLogger(__name__)

#: Versioned identifier stamped into every journal header; the only schema
#: the loader accepts.
JOURNAL_SCHEMA = "repro.runner/journal.v3"

#: Byte budget of one serialized checkpoint state (64 MiB).  A 1M-node
#: checkpoint shard is a few MB compressed; anything past this cap falls
#: back -- loudly -- to unit-granularity journaling rather than ballooning
#: the journal file.
STATE_LIMIT = 64 * 1024 * 1024


def journal_header(spec, version: str, unit_count: int) -> Dict[str, Any]:
    """The header record for one campaign: identity plus execution env.

    ``spec`` must already be resolved against the scenario's defaults --
    the executor builds the header from the same spec its unit seeds derive
    from, so a default edit (new resolved hash) or a version bump can never
    replay stale results.
    """
    header = {
        "journal": JOURNAL_SCHEMA,
        "scenario": spec.name,
        "version": version,
        "spec_hash": spec.spec_hash(),
        "seed": spec.seed,
        "trials": spec.trials,
        "units": unit_count,
    }
    header.update(environment_pins())
    return header


def _header_mismatches(recorded: Mapping[str, Any], header: Mapping[str, Any]):
    """Field names of ``header`` that ``recorded`` contradicts."""
    return sorted(key for key in header if recorded.get(key) != header[key])


class CampaignJournal:
    """One campaign's append-only progress journal on disk."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None
        #: Set once the filesystem refuses an append: the campaign carries
        #: on un-journaled (warned once, counted once per journal).
        self.write_failed = False
        #: Sub-unit checkpoint states loaded by the last :meth:`_read` --
        #: ``{content key: {(a, b): state-dict}}``.
        self.checkpoints: Dict[str, Dict[Tuple[int, int], Any]] = {}

    # -- reading -------------------------------------------------------
    def _read(self) -> Tuple[Optional[Dict[str, Any]], Dict[int, Dict[str, float]], bool]:
        """Parse the file: ``(header, {unit_index: metrics}, complete)``.

        Sub-unit checkpoint records land in :attr:`checkpoints` as a side
        effect.  Tolerates exactly one undecodable *trailing* line (a crash
        between write and flush); earlier garbage raises ``ConfigError``.
        """
        from repro.core.errors import ConfigError
        from repro.runner import faults

        header: Optional[Dict[str, Any]] = None
        units: Dict[int, Dict[str, float]] = {}
        checkpoints: Dict[str, Dict[Tuple[int, int], Any]] = {}
        complete = False
        try:
            faults.fault_point("journal.read")
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            raise
        except OSError as error:
            raise ConfigError(
                f"journal {self.path} could not be read ({error}); "
                "delete it to start the campaign from scratch"
            ) from error
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines):
                    logger.warning(
                        "journal %s: dropping truncated trailing record "
                        "(crash mid-append); the record will recompute",
                        self.path,
                    )
                    break
                raise ConfigError(
                    f"journal {self.path} is corrupt at line {lineno}; "
                    "delete it to start the campaign from scratch"
                ) from None
            if header is None:
                if (
                    not isinstance(record, dict)
                    or record.get("journal") != JOURNAL_SCHEMA
                ):
                    raise ConfigError(
                        f"journal {self.path} has no {JOURNAL_SCHEMA} header; "
                        "delete it to start the campaign from scratch"
                    )
                header = record
            elif record.get("complete"):
                complete = True
            elif "ckpt" in record:
                self._load_checkpoint_record(record, checkpoints)
            elif "unit" in record:
                units[int(record["unit"])] = {
                    str(key): float(value)
                    for key, value in record.get("metrics", {}).items()
                }
        self.checkpoints = checkpoints
        return header, units, complete

    def _load_checkpoint_record(
        self,
        record: Mapping[str, Any],
        checkpoints: Dict[str, Dict[Tuple[int, int], Any]],
    ) -> None:
        """Fold one ``ckpt`` record into the ``{key: {span: state}}`` map.

        A later record for the same key and span replaces the earlier one;
        a structurally broken record is dropped with a warning -- checkpoint
        state is an optimization, never worth failing a resume.
        """
        try:
            key = str(record["ckpt"])
            a, b = record["span"]
            span = (int(a), int(b))
            state = record["state"]
            if not isinstance(state, dict):
                raise TypeError("state must be a mapping")
        except (KeyError, TypeError, ValueError) as error:
            logger.warning(
                "journal %s: dropping malformed checkpoint record (%s); "
                "that shard will recompute",
                self.path,
                error,
            )
            return
        checkpoints.setdefault(key, {})[span] = state

    def resume_state(self, header: Mapping[str, Any]) -> Dict[int, Dict[str, float]]:
        """Validate the on-disk journal against ``header`` and load its units.

        Also populates :attr:`checkpoints` with the journal's sub-unit
        checkpoint states.  Raises ``ConfigError`` when there is nothing to
        resume or the journal belongs to a different campaign/environment.
        """
        from repro.core.errors import ConfigError

        if not self.path.exists():
            raise ConfigError(
                f"nothing to resume: no journal at {self.path} "
                "(run without --resume first)"
            )
        recorded, units, _complete = self._read()
        if recorded is None:
            raise ConfigError(
                f"nothing to resume: journal {self.path} has no readable header"
            )
        mismatched = _header_mismatches(recorded, header)
        if mismatched:
            detail = ", ".join(
                f"{key}: journal={recorded.get(key)!r} vs campaign={header[key]!r}"
                for key in mismatched
            )
            raise ConfigError(
                f"journal {self.path} does not match this campaign ({detail}); "
                "delete it or rerun without --resume"
            )
        total = int(header["units"])
        out_of_range = [index for index in units if not 0 <= index < total]
        if out_of_range:
            raise ConfigError(
                f"journal {self.path} records out-of-range unit(s) "
                f"{sorted(out_of_range)} for a {total}-unit campaign"
            )
        return units

    # -- writing -------------------------------------------------------
    def open(self, header: Mapping[str, Any], *, resume: bool = False) -> None:
        """Start journaling: fresh runs truncate and write the header,
        resumed runs append below the existing records.

        A resumed open **re-verifies** the on-disk header immediately
        before appending: the tolerant-truncation pass (or a concurrent
        writer) may have changed what is actually on disk since
        :meth:`resume_state` ran, and appending under a stale or absent pin
        would let a journal truncated down into its header silently restart
        a different campaign.  Mismatch or unreadable header raises
        :class:`~repro.core.errors.ConfigError`.
        """
        from repro.core.errors import ConfigError

        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            recorded, _units, _complete = self._read()
            if recorded is None:
                raise ConfigError(
                    f"cannot resume into journal {self.path}: no readable "
                    "header survives on disk; delete it and rerun without "
                    "--resume"
                )
            mismatched = _header_mismatches(recorded, header)
            if mismatched:
                raise ConfigError(
                    f"cannot resume into journal {self.path}: the on-disk "
                    f"header no longer matches this campaign "
                    f"(fields: {', '.join(mismatched)}); delete it or rerun "
                    "without --resume"
                )
            self._handle = self.path.open("a", encoding="utf-8")
            return
        self._handle = self.path.open("w", encoding="utf-8")
        self._append(header, fsync=True)

    def _degrade_writes(self, error: OSError) -> None:
        """First refused append: warn once, count once, stop journaling.

        The campaign's results are all in memory (and in the cache when one
        is active), so an ailing filesystem must cost the *journal*, never
        the run -- the same posture as ``ResultCache.put``.
        """
        self.write_failed = True
        _telemetry().count("runner.journal.write_failed")
        logger.warning(
            "journal %s: append refused by the filesystem (%s); continuing "
            "the campaign un-journaled (--resume will replay only the "
            "records already on disk)",
            self.path,
            error,
        )
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def _append(self, record: Mapping[str, Any], *, fsync: bool = False) -> bool:
        if self._handle is None:
            return False
        from repro.runner import faults

        try:
            faults.fault_point("journal.write")
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            # Flush every record: a SIGKILLed parent then loses at most the
            # line being written, and the tolerant loader drops that one.
            self._handle.flush()
            if fsync:
                os.fsync(self._handle.fileno())
        except OSError as error:
            self._degrade_writes(error)
            return False
        return True

    def record_unit(self, index: int, metrics: Mapping[str, float]) -> None:
        """Append one completed unit's metrics."""
        self._append({"unit": index, "metrics": dict(metrics)})

    def record_checkpoint_shard(
        self, key: str, span: Tuple[int, int], state: Mapping[str, str]
    ) -> bool:
        """Append one completed checkpoint shard's serialized accumulators.

        ``key`` is the checkpoint's content hash, ``span`` the shard's
        source span and ``state`` maps accumulator names to encoded payloads
        (:func:`repro.graphs.fast.serialize_accumulators`).  Oversized
        states (past :data:`STATE_LIMIT`) are not written: the fallback to
        unit-granularity journaling is logged and counted
        (``runner.journal.ckpt_oversize``), because an interrupted unit
        that silently stopped checkpointing would look resumable-at-shard
        granularity when it is not.
        """
        if self._handle is None:
            return False
        encoded_size = sum(len(value) for value in state.values())
        if encoded_size > STATE_LIMIT:
            _telemetry().count("runner.journal.ckpt_oversize")
            logger.warning(
                "journal %s: checkpoint state %s span %s is %d bytes (limit "
                "%d); falling back to unit-granularity journaling for this "
                "checkpoint",
                self.path,
                key,
                tuple(span),
                encoded_size,
                STATE_LIMIT,
            )
            return False
        written = self._append(
            {"ckpt": key, "span": [int(span[0]), int(span[1])], "state": dict(state)}
        )
        if written:
            _telemetry().count("runner.journal.ckpt_recorded")
        return written

    def finish(self) -> None:
        """Mark the campaign complete and close the file."""
        self._append({"complete": True}, fsync=True)
        self.close()

    def close(self) -> None:
        """Close the handle (idempotent; an unfinished journal stays resumable)."""
        if self._handle is not None:
            try:
                self._handle.flush()
            except OSError:
                pass
            finally:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


# ----------------------------------------------------------------------
# Sub-unit checkpoint plumbing (parent-process state)
# ----------------------------------------------------------------------
# The executor installs one CheckpointJournalContext per journaled campaign.
# Checkpointed computations deep inside a unit -- the exact path-metric
# campaigns of ``sharded_full_path_metrics`` -- consult
# :func:`active_checkpoints` to replay journaled accumulators and to record
# fresh ones.  The context is process-local and pool workers never consult
# it, so a unit running in a worker journals at unit granularity.

class CheckpointJournalContext:
    """One journaled campaign's sub-unit checkpoint state (parent-side).

    Replays come from the states :meth:`CampaignJournal.resume_state`
    loaded (none for a fresh campaign); fresh shards append to the journal.
    """

    def __init__(self, journal: CampaignJournal) -> None:
        self.journal = journal
        #: Checkpoint shards replayed from the journal instead of computed.
        self.shards_replayed = 0
        #: Fresh checkpoint shards appended to the journal.
        self.shards_recorded = 0

    def saved_spans(self, key: str) -> Mapping[Tuple[int, int], Any]:
        """Journaled states of the checkpoint with content ``key``, by span."""
        return self.journal.checkpoints.get(key, {})

    def note_replayed(self, spans: int) -> None:
        self.shards_replayed += spans
        _telemetry().count("runner.journal.ckpt_replayed", spans)

    def record_shard(
        self, key: str, span: Tuple[int, int], state: Mapping[str, str]
    ) -> None:
        if self.journal.record_checkpoint_shard(key, span, state):
            self.shards_recorded += 1


_campaign_context: Optional[CheckpointJournalContext] = None


@contextmanager
def campaign_checkpoints(journal: Optional[CampaignJournal]):
    """Install the campaign checkpoint context for the executor's duration.

    Yields the installed :class:`CheckpointJournalContext` (``None`` when
    ``journal`` is ``None``: an un-journaled campaign runs with sub-unit
    checkpointing off).  Re-entrant: a nested campaign shadows and then
    restores the outer one.
    """
    global _campaign_context
    previous = _campaign_context
    context = CheckpointJournalContext(journal) if journal is not None else None
    _campaign_context = context
    try:
        yield context
    finally:
        _campaign_context = previous


def active_checkpoints() -> Optional[CheckpointJournalContext]:
    """The journaled campaign's checkpoint context (``None`` almost everywhere)."""
    return _campaign_context


# ----------------------------------------------------------------------
# Inspection (the ``python -m repro.runner journal`` subcommand)
# ----------------------------------------------------------------------
def inspect(path: Union[str, Path]) -> Dict[str, Any]:
    """Summarize a journal for humans and CI: validity, progress, env fit.

    Returns a plain dict; raises :class:`~repro.core.errors.ConfigError`
    (or ``FileNotFoundError``) when the journal is unreadable or corrupt --
    the CLI maps both onto exit code 3.
    """
    journal = CampaignJournal(path)
    header, units, complete = journal._read()
    if header is None:
        from repro.core.errors import ConfigError

        raise ConfigError(f"journal {path} has no readable header")
    total = int(header.get("units", 0))
    in_range = [index for index in units if 0 <= index < total]
    out_of_range = sorted(set(units) - set(in_range))
    current_env = environment_pins()
    env_mismatches = sorted(
        key for key in current_env if header.get(key) != current_env[key]
    )
    checkpoint_shards = sum(len(spans) for spans in journal.checkpoints.values())
    return {
        "path": str(path),
        "schema": header.get("journal"),
        "scenario": header.get("scenario"),
        "version": header.get("version"),
        "spec_hash": header.get("spec_hash"),
        "seed": header.get("seed"),
        "trials": header.get("trials"),
        "units_total": total,
        "units_complete": len(in_range),
        "percent_complete": (100.0 * len(in_range) / total) if total else 0.0,
        "complete": complete,
        "checkpoints": len(journal.checkpoints),
        "checkpoint_shards": checkpoint_shards,
        "environment": {key: header.get(key) for key in current_env},
        "environment_mismatches": env_mismatches,
        "out_of_range_units": out_of_range,
        "resumable": not env_mismatches and not out_of_range,
    }
