"""The Data Dependence Table (paper Section 2).

The DDT is a RAM with one row per physical register and one bit-column per
in-flight instruction.  On rename the destination row is rewritten as::

    DDT[dest] = (DDT[src1] | DDT[src2]) & valid  |  own_bit

so each row always holds the *full transitive* dependence chain of the
value in that register, restricted to in-flight instructions.  Committing
an instruction clears its valid bit, removing it from every chain in one
cycle; a branch misprediction rolls the head pointer back like the ROB.

Two implementations share the same observable semantics:

* :class:`DDT` — hardware-faithful: an explicit circular RAM with head and
  tail pointers, column clearing before entry reuse, and a valid bit
  vector.  It reproduces paper Figure 1 bit-for-bit and is used in tests
  and sizing calculations.
* :class:`FastDDT` — a sliding-window implementation over monotonically
  increasing instruction tokens, used by the timing engine (no per-reuse
  column sweep; a periodic renormalization keeps bitmask widths bounded).

Both identify in-flight instructions by a monotonically increasing integer
*token* assigned at allocation, so their chains can be compared directly
(``hypothesis`` equivalence tests do exactly that).  :class:`CrossCheckedDDT`
does it on the live engine: under ``PipelineEngine(...,
ddt_cross_check=True)`` it mirrors every engine-issued ``allocate`` /
``commit_oldest`` / ``rollback_to`` into both and raises
:class:`DDTCrossCheckError` on the first divergence.
"""

from __future__ import annotations

from typing import Iterable


class DDTError(RuntimeError):
    """Raised on structural misuse (overflow, empty commit, bad rollback)."""


class _DDTBase:
    """Shared query helpers; subclasses implement storage and updates."""

    num_regs: int
    num_entries: int

    def chain_mask(self, *regs: int) -> int:
        raise NotImplementedError

    def chain_tokens(self, *regs: int) -> set[int]:
        raise NotImplementedError

    def allocate(self, dest: int | None, srcs: Iterable[int]) -> int:
        raise NotImplementedError

    def commit_oldest(self) -> int:
        raise NotImplementedError

    def rollback_to(self, token: int) -> list[int]:
        raise NotImplementedError

    @property
    def in_flight(self) -> int:
        raise NotImplementedError

    def depends_on(self, reg: int, token: int) -> bool:
        """Does the value in ``reg`` depend on in-flight instruction ``token``?"""
        return token in self.chain_tokens(reg)

    def chain_length(self, *regs: int) -> int:
        """Number of in-flight instructions in the dependence chain.

        A population count over the chain bitmask — no caller needs to
        materialize a token set just to take its length (hardware: a
        popcount tree over the OR of the selected DDT rows).
        """
        return self.chain_mask(*regs).bit_count()

    @property
    def storage_bits(self) -> int:
        """Paper Section 2 sizing: ROB entries x physical registers."""
        return self.num_regs * self.num_entries

    @property
    def storage_bytes(self) -> int:
        return self.storage_bits // 8


class DDT(_DDTBase):
    """Hardware-faithful DDT: circular RAM, head/tail, valid vector."""

    def __init__(self, num_regs: int, num_entries: int) -> None:
        if num_regs < 1 or num_entries < 1:
            raise ValueError("dimensions must be positive")
        self.num_regs = num_regs
        self.num_entries = num_entries
        # rows[r] bit e set => register r depends on instruction entry e.
        self.rows = [0] * num_regs
        self.valid = 0
        self.head = 0  # next entry to allocate
        self.tail = 0  # oldest in-flight entry
        self._count = 0
        self._entry_token = [-1] * num_entries
        self._next_token = 0
        # Column membership: _col_members[e] bit r set <=> rows[r] has bit
        # e.  Lets the entry-reuse column clear touch only the rows that
        # actually hold the bit instead of sweeping all num_regs rows.
        self._col_members = [0] * num_entries

    @property
    def in_flight(self) -> int:
        return self._count

    @property
    def next_token(self) -> int:
        """Token the next allocation will receive (the DDT head)."""
        return self._next_token

    def allocate(self, dest: int | None, srcs: Iterable[int]) -> int:
        """Insert a renamed instruction; returns its token.

        ``dest`` is the renamed destination physical register (``None`` for
        stores/branches, which occupy a column but update no row).
        """
        if self._count >= self.num_entries:
            raise DDTError("DDT full")
        entry = self.head
        bit = 1 << entry
        rows = self.rows
        col_members = self._col_members
        # Clear the column before reuse (paper: "all bits in the instruction
        # entry must be cleared" before a new instruction reuses it).  The
        # membership mask names exactly the rows holding the bit, so the
        # clear walks those instead of all num_regs rows.
        members = col_members[entry]
        if members:
            clear = ~bit
            while members:
                low = members & -members
                rows[low.bit_length() - 1] &= clear
                members ^= low
            col_members[entry] = 0
        chain = 0
        for src in srcs:
            chain |= rows[src]
        chain &= self.valid
        if dest is not None:
            old = rows[dest]
            new = chain | bit
            rows[dest] = new
            # Maintain column membership for every column whose bit in
            # this row changed (set bits of old ^ new).
            diff = old ^ new
            dest_bit = 1 << dest
            while diff:
                low = diff & -diff
                col = low.bit_length() - 1
                if new & low:
                    col_members[col] |= dest_bit
                else:
                    col_members[col] &= ~dest_bit
                diff ^= low
        self.valid |= bit
        self.head = (self.head + 1) % self.num_entries
        self._count += 1
        token = self._next_token
        self._entry_token[entry] = token
        self._next_token += 1
        return token

    def commit_oldest(self) -> int:
        """Commit the oldest in-flight instruction; returns its token."""
        if self._count == 0:
            raise DDTError("commit on empty DDT")
        entry = self.tail
        self.valid &= ~(1 << entry)
        self.tail = (self.tail + 1) % self.num_entries
        self._count -= 1
        return self._entry_token[entry]

    def rollback_to(self, token: int) -> list[int]:
        """Squash every instruction younger than ``token``.

        Mirrors the ROB rollback on a branch misprediction: the head
        pointer is walked back and the squashed valid bits cleared.
        Returns the squashed tokens, youngest first.
        """
        squashed: list[int] = []
        while self._count:
            newest_entry = (self.head - 1) % self.num_entries
            newest_token = self._entry_token[newest_entry]
            if newest_token <= token:
                break
            self.valid &= ~(1 << newest_entry)
            self.head = newest_entry
            self._count -= 1
            squashed.append(newest_token)
        return squashed

    def chain_mask(self, *regs: int) -> int:
        """Raw entry bitmask of the chain for the given registers."""
        mask = 0
        for reg in regs:
            mask |= self.rows[reg]
        return mask & self.valid

    def chain_tokens(self, *regs: int) -> set[int]:
        mask = self.chain_mask(*regs)
        entry_token = self._entry_token
        tokens = set()
        # Iterate only the set bits (lowest-set-bit extraction), not all
        # num_entries columns.
        while mask:
            low = mask & -mask
            tokens.add(entry_token[low.bit_length() - 1])
            mask ^= low
        return tokens

    def entry_of_token(self, token: int) -> int | None:
        """Column index currently holding ``token`` (None if retired)."""
        mask = self.valid
        entry_token = self._entry_token
        while mask:
            low = mask & -mask
            entry = low.bit_length() - 1
            if entry_token[entry] == token:
                return entry
            mask ^= low
        return None

    def row_bits(self, reg: int) -> tuple[int, ...]:
        """Raw row contents as a tuple of column bits (for figure tests)."""
        return tuple(self.rows[reg] >> e & 1 for e in range(self.num_entries))


class FastDDT(_DDTBase):
    """Sliding-window DDT used by the timing engine.

    Tokens are bit positions relative to ``_base``; a renormalization
    shifts every row right when the window drifts, keeping Python int
    widths proportional to the span from the oldest in-flight token to
    the newest.  (After a rollback the window may contain squashed-token
    gaps, so the span can temporarily exceed the in-flight count until
    the pre-gap instructions commit.)
    """

    _RENORM_INTERVAL = 4096

    def __init__(self, num_regs: int, num_entries: int) -> None:
        if num_regs < 1 or num_entries < 1:
            raise ValueError("dimensions must be positive")
        self.num_regs = num_regs
        self.num_entries = num_entries
        self.rows = [0] * num_regs
        self.valid = 0
        self._base = 0
        self._count = 0
        self._next_token = 0

    @property
    def in_flight(self) -> int:
        return self._count

    @property
    def next_token(self) -> int:
        """Token the next allocation will receive (the DDT head)."""
        return self._next_token

    def allocate(self, dest: int | None, srcs: Iterable[int]) -> int:
        if self.in_flight >= self.num_entries:
            raise DDTError("DDT full")
        token = self._next_token
        pos = token - self._base
        if pos >= self._RENORM_INTERVAL:
            self._renormalize()
            pos = token - self._base
        bit = 1 << pos
        rows = self.rows
        chain = 0
        for src in srcs:
            chain |= rows[src]
        chain &= self.valid
        if dest is not None:
            rows[dest] = chain | bit
        self.valid |= bit
        self._count += 1
        self._next_token += 1
        return token

    def _renormalize(self) -> None:
        # Shift down to the oldest in-flight token (lowest valid bit), so
        # the window width tracks the oldest-to-newest in-flight span even
        # across the token gaps rollbacks leave behind.
        if self.valid:
            low = self.valid & -self.valid
            oldest = self._base + low.bit_length() - 1
        else:
            oldest = self._next_token
        shift = oldest - self._base
        if shift <= 0:
            return
        self.rows = [row >> shift for row in self.rows]
        self.valid >>= shift
        self._base = oldest

    def commit_oldest(self) -> int:
        if self._count == 0:
            raise DDTError("commit on empty DDT")
        # The oldest in-flight instruction is the lowest valid bit (after
        # a rollback the window may contain squashed-token gaps, so the
        # tail cannot simply advance by one).
        low = self.valid & -self.valid
        token = self._base + low.bit_length() - 1
        self.valid ^= low
        self._count -= 1
        return token

    def rollback_to(self, token: int) -> list[int]:
        """Squash every in-flight instruction younger than ``token``.

        Tokens stay monotone — instructions allocated on the corrected
        path after a rollback receive fresh identities, matching the
        reference :class:`DDT` exactly.
        """
        cut = max(token + 1 - self._base, 0)
        high = self.valid >> cut << cut
        if not high:
            return []
        squashed = []
        mask = high
        while mask:
            top = mask.bit_length() - 1
            squashed.append(self._base + top)
            mask ^= 1 << top
        self.valid ^= high
        self._count -= len(squashed)
        return squashed

    def chain_mask(self, *regs: int) -> int:
        mask = 0
        rows = self.rows
        for reg in regs:
            mask |= rows[reg]
        return mask & self.valid

    def chain_tokens(self, *regs: int) -> set[int]:
        mask = self.chain_mask(*regs)
        base = self._base
        tokens = set()
        while mask:
            low = mask & -mask
            tokens.add(base + low.bit_length() - 1)
            mask ^= low
        return tokens

    def oldest_chain_token(self, *regs: int) -> int | None:
        """Lowest (oldest) token in the chain — used for the depth key.

        Hardware equivalent: leading-one detection over the DDT row with
        two priority encoders to handle buffer wrap (paper Section 4.5).
        """
        mask = self.chain_mask(*regs)
        if not mask:
            return None
        low = mask & -mask
        return self._base + low.bit_length() - 1


class DDTCrossCheckError(AssertionError):
    """The fast and hardware-faithful DDTs disagreed on an operation."""


class CrossCheckedDDT:
    """A :class:`FastDDT` mirrored into the hardware-faithful :class:`DDT`.

    Exposes the engine-facing interface of :class:`FastDDT`; every
    mutation is applied to both implementations and the observable
    results compared.  After every rollback the complete per-register
    ``chain_tokens`` state is verified (the §2.3 property, now enforced
    on the live engine script rather than synthetic ones).
    """

    def __init__(self, num_regs: int, num_entries: int) -> None:
        self.fast = FastDDT(num_regs, num_entries)
        self.reference = DDT(num_regs, num_entries)
        self.num_regs = num_regs
        self.num_entries = num_entries
        self.operations = 0
        self.rollback_checks = 0

    # -- mutations (mirrored + checked) -------------------------------------

    def allocate(self, dest, srcs) -> int:
        srcs = tuple(srcs)
        token = self.fast.allocate(dest, srcs)
        ref_token = self.reference.allocate(dest, srcs)
        if token != ref_token:
            raise DDTCrossCheckError(
                f"allocate token mismatch: fast={token} ref={ref_token}")
        self.operations += 1
        return token

    def commit_oldest(self) -> int:
        token = self.fast.commit_oldest()
        ref_token = self.reference.commit_oldest()
        if token != ref_token:
            raise DDTCrossCheckError(
                f"commit token mismatch: fast={token} ref={ref_token}")
        self.operations += 1
        return token

    def rollback_to(self, token: int) -> list[int]:
        squashed = self.fast.rollback_to(token)
        ref_squashed = self.reference.rollback_to(token)
        if squashed != ref_squashed:
            raise DDTCrossCheckError(
                f"rollback squash mismatch at token {token}: "
                f"fast={squashed} ref={ref_squashed}")
        self.verify_chains()
        self.operations += 1
        self.rollback_checks += 1
        return squashed

    def verify_chains(self) -> None:
        """Full per-register chain comparison between both DDTs."""
        for reg in range(self.num_regs):
            fast_chain = self.fast.chain_tokens(reg)
            ref_chain = self.reference.chain_tokens(reg)
            if fast_chain != ref_chain:
                raise DDTCrossCheckError(
                    f"chain mismatch for register {reg}: "
                    f"fast={sorted(fast_chain)} ref={sorted(ref_chain)}")
        if self.fast.in_flight != self.reference.in_flight:
            raise DDTCrossCheckError(
                f"occupancy mismatch: fast={self.fast.in_flight} "
                f"ref={self.reference.in_flight}")

    # -- read-only queries (served by the fast implementation) ---------------

    @property
    def in_flight(self) -> int:
        return self.fast.in_flight

    @property
    def next_token(self) -> int:
        return self.fast.next_token

    def chain_tokens(self, *regs: int) -> set[int]:
        return self.fast.chain_tokens(*regs)

    def chain_length(self, *regs: int) -> int:
        return self.fast.chain_length(*regs)

    def oldest_chain_token(self, *regs: int):
        return self.fast.oldest_chain_token(*regs)
