"""System configuration mirroring Table II of the paper.

All latencies are expressed in CPU cycles at the configured frequency.
``SystemConfig.table2()`` returns the exact configuration evaluated in
the paper: 8 x86-64 cores at 2 GHz, a 3-level cache hierarchy, an
FRFCFS memory controller with a 64-entry ADR write queue, a 20-entry
battery-backed log buffer per core, and 16 GB of phase-change memory
with 50 / 150 ns read / write latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.constants import LINE_SIZE, ONPM_LINE_SIZE, WORD_SIZE
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and access latency of one cache level."""

    size_bytes: int
    ways: int
    line_size: int = LINE_SIZE
    latency_cycles: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_size <= 0:
            raise ConfigError("cache sizes and associativity must be positive")
        if self.size_bytes % (self.ways * self.line_size):
            raise ConfigError(
                f"cache size {self.size_bytes} is not divisible by "
                f"ways*line_size={self.ways * self.line_size}"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size


@dataclass(frozen=True)
class PMConfig:
    """Persistent-memory device parameters (phase-change memory)."""

    capacity_bytes: int = 16 << 30
    read_ns: float = 50.0
    write_ns: float = 150.0
    #: Fixed cycles to issue one request on the processor-memory bus.
    bus_overhead_cycles: int = 4
    #: Cycles per 8-byte beat on the 64-bit bus: a full 64B cacheline
    #: request takes ``overhead + 8*beat`` cycles, a single-word flush
    #: (Silo's in-place updates, Section III-E) just one beat.
    bus_beat_cycles: int = 2
    onpm_line_size: int = ONPM_LINE_SIZE
    onpm_buffer_lines: int = 64
    banks: int = 8

    def __post_init__(self) -> None:
        if self.read_ns <= 0 or self.write_ns <= 0:
            raise ConfigError("PM latencies must be positive")
        if self.onpm_line_size % WORD_SIZE:
            raise ConfigError("on-PM line size must be a multiple of the word size")
        if self.banks <= 0 or self.onpm_buffer_lines <= 0:
            raise ConfigError("banks and on-PM buffer lines must be positive")


@dataclass(frozen=True)
class MemoryControllerConfig:
    """FRFCFS memory controller with an ADR-protected write queue."""

    write_queue_entries: int = 64
    read_queue_entries: int = 64


@dataclass(frozen=True)
class LogBufferConfig:
    """Per-core battery-backed log buffer (Section III-B, Table I)."""

    entries: int = 20
    access_latency_cycles: int = 8
    #: Bytes per stored entry: 26-byte undo+redo entry plus the 8-byte
    #: physical address assigned in the PM log region (Section VI-D).
    bytes_per_entry: int = 34

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigError("log buffer needs at least one entry")
        if self.access_latency_cycles < 0:
            raise ConfigError(
                "log buffer access latency must be non-negative, got "
                f"{self.access_latency_cycles}"
            )

    @property
    def capacity_bytes(self) -> int:
        return self.entries * self.bytes_per_entry


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated system (Table II)."""

    cores: int = 8
    freq_ghz: float = 2.0
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 << 10, 8, latency_cycles=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 << 10, 8, latency_cycles=12)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(8 << 20, 16, latency_cycles=28)
    )
    mc: MemoryControllerConfig = field(default_factory=MemoryControllerConfig)
    log_buffer: LogBufferConfig = field(default_factory=LogBufferConfig)
    pm: PMConfig = field(default_factory=PMConfig)
    #: Number of memory controllers; each serves the whole memory and
    #: a core always uses its own (Section III-D's multi-MC argument).
    memory_channels: int = 1
    #: Fixed cycles charged per executed operation for non-memory work.
    op_overhead_cycles: int = 1
    #: Cycles for the on-chip commit handshake between log generator and
    #: log controller ("several cycles", Section III-D).
    commit_handshake_cycles: int = 6

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigError("need at least one core")
        if self.freq_ghz <= 0:
            raise ConfigError("frequency must be positive")
        if self.memory_channels < 1:
            raise ConfigError(
                "need at least one memory channel, got "
                f"{self.memory_channels}"
            )

    @classmethod
    def table2(cls, cores: int = 8) -> "SystemConfig":
        """The paper's evaluated configuration, optionally re-cored."""
        return cls(cores=cores)

    def ns_to_cycles(self, ns: float) -> int:
        """Convert nanoseconds to (rounded-up) CPU cycles."""
        cycles = ns * self.freq_ghz
        whole = int(cycles)
        return whole if cycles == whole else whole + 1

    @property
    def pm_read_cycles(self) -> int:
        return self.ns_to_cycles(self.pm.read_ns)

    @property
    def pm_write_cycles(self) -> int:
        return self.ns_to_cycles(self.pm.write_ns)

    def pm_request_cycles(self, words: int = 8) -> int:
        """Bus cycles to transfer a request of ``words`` 8-byte beats."""
        return self.pm.bus_overhead_cycles + words * self.pm.bus_beat_cycles

    def with_log_buffer(self, **kwargs: object) -> "SystemConfig":
        """Return a copy with modified log-buffer parameters."""
        return replace(self, log_buffer=replace(self.log_buffer, **kwargs))
