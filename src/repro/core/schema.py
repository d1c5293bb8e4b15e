"""Flow schemas: named, fixed-offset tuple layouts.

A :class:`Schema` is declared once at flow initialization (mirroring
``DFI_Schema({"key", int}, {"value", int})`` from the paper's Figure 1) and
compiled to a ``struct.Struct`` — packing, unpacking and key extraction all
run on precomputed offsets with zero per-tuple type interpretation.

Schema specialization (the columnar hot path)
---------------------------------------------
On top of the generic ``struct`` machinery, each schema compiles a small
set of *specialized kernels* from generated source (``exec``-cached per
dtype-code string, so two schemas with the same wire layout share one
kernel set):

* ``pack_many_into`` / ``unpack_rows`` — flat batch (de)serializers with
  the schema layout baked into the source;
* hash-partition kernels for the shuffle router (integer keys skip the
  per-tuple ``int`` probe entirely — the dtype proves it);
* columnar combiner folds that aggregate straight out of packed segment
  bytes, decoding only the group/value columns (every other field becomes
  ``struct`` pad bytes).

The kernels are wall-clock accelerators only: they emit bit-identical
bytes, partitions and aggregates to the generic path, and none of them is
ever consulted for a simulated-time decision. ``REPRO_NO_CODEGEN=1``
(see :mod:`repro.common.config`) disables generation and leaves every
call on the generic pure-``struct`` fallback.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from itertools import chain

from repro.common.config import codegen_enabled
from repro.common.errors import SchemaError
from repro.core.types import DataType, resolve_type

#: struct codes whose values are always Python ints (lets the router
#: kernel drop the per-tuple integer probe).
_INT_CODES = frozenset("bBhHiIqQ")

#: Unsigned subset: key dtypes whose in-range values fit a C uint64,
#: making the vectorized router bucket pass applicable.
_UNSIGNED_CODES = frozenset("BHIQ")

#: Lazily-resolved numpy module, or ``False`` when unavailable. The
#: vectorized router pass is an optional accelerator only — the
#: stdlib router stays the reference and the fallback, and nothing
#: else in the simulator touches numpy.
_NUMPY = None


def _numpy():
    global _NUMPY
    if _NUMPY is None:
        try:
            import numpy
            _NUMPY = numpy
        except ImportError:  # pragma: no cover - depends on environment
            _NUMPY = False
    return _NUMPY

#: Fibonacci-hash constants of :func:`repro.core.routing._fibonacci_hash_u64`
#: (duplicated here for inlining into generated router source; the router
#: tests pin the two definitions together).
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1

#: Batches below this size stay on the scalar router loop — the
#: vectorized pass has per-call conversion overhead that only pays
#: off once the batch amortizes it (threshold is a pure wall-clock
#: knob: both passes produce bit-identical partitions).
_ROUTE_NP_MIN = 256

#: Count-keyed batch-struct caches stop growing at this many entries;
#: uncached counts fall back to power-of-two chunked packing instead of
#: compiling a fresh ``struct.Struct`` per call.
_BATCH_CACHE_CAP = 64


@dataclass(frozen=True)
class Field:
    """One schema column: a name, a type, and its byte offset."""

    name: str
    dtype: DataType
    offset: int


class Schema:
    """An ordered set of typed fields defining the wire layout of a tuple.

    Example::

        schema = Schema(("key", "uint64"), ("value", "uint64"))
        raw = schema.pack((1, 20))
        assert schema.unpack(raw) == (1, 20)
    """

    def __init__(self, *fields: tuple[str, "DataType | str | int"]) -> None:
        if not fields:
            raise SchemaError("a schema needs at least one field")
        resolved: list[Field] = []
        seen: set[str] = set()
        offset = 0
        for entry in fields:
            try:
                name, spec = entry
            except (TypeError, ValueError):
                raise SchemaError(
                    f"schema field must be a (name, type) pair, got {entry!r}"
                ) from None
            if not isinstance(name, str) or not name:
                raise SchemaError(f"field name must be a non-empty string, "
                                  f"got {name!r}")
            if name in seen:
                raise SchemaError(f"duplicate field name {name!r}")
            seen.add(name)
            dtype = resolve_type(spec)
            resolved.append(Field(name, dtype, offset))
            offset += dtype.size
        self._fields = tuple(resolved)
        self._index = {field.name: i for i, field in enumerate(resolved)}
        self._codes = "".join(field.dtype.code for field in resolved)
        self._struct = struct.Struct("<" + self._codes)
        if self._struct.size != offset:
            raise AssertionError("packed size does not match field offsets")
        #: Bound method cache: ``unpack_rows`` runs once per drained
        #: segment on the target hot path.
        self._iter_unpack = self._struct.iter_unpack
        #: The tuple layout's bound ``struct.Struct.pack_into``, for hot
        #: loops that pack one tuple per call:
        #: ``raw_pack_into(buffer, offset, *values)``. A mismatched tuple
        #: raises ``struct.error``; :meth:`pack_error` turns that into
        #: the exact SchemaError :meth:`pack_into` raises.
        self.raw_pack_into = self._struct.pack_into
        #: Compiled batch structs, keyed by tuple count (push_batch packs a
        #: whole segment with a single struct call). Bounded: once
        #: ``_BATCH_CACHE_CAP`` distinct counts are cached, new counts pack
        #: through power-of-two chunks instead of compiling per call.
        self._batch_structs: dict[int, struct.Struct] = {}
        #: Power-of-two chunk structs used by counts that miss the full
        #: cache (bounded by the count's bit length, so ~60 entries max).
        self._pow2_structs: dict[int, struct.Struct] = {}
        #: Generated kernel set (``None`` under ``REPRO_NO_CODEGEN``).
        self._kernels = None
        if codegen_enabled():
            kernels = _kernels_for(self._codes)
            self._kernels = kernels
            # Shadow the generic bound methods with the flat generated
            # kernels (same signatures minus ``self``).
            self.pack_many_into = kernels.pack_many_into
            self.unpack_rows = kernels.unpack_rows

    # -- introspection -----------------------------------------------------
    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    @property
    def tuple_size(self) -> int:
        """Packed size of one tuple in bytes."""
        return self._struct.size

    @property
    def arity(self) -> int:
        return len(self._fields)

    def field_index(self, name_or_index: "str | int") -> int:
        """Resolve a field reference (name or positional index)."""
        if isinstance(name_or_index, int):
            if not 0 <= name_or_index < len(self._fields):
                raise SchemaError(
                    f"field index {name_or_index} out of range "
                    f"[0, {len(self._fields)})")
            return name_or_index
        try:
            return self._index[name_or_index]
        except KeyError:
            raise SchemaError(
                f"unknown field {name_or_index!r}; fields: "
                f"{[f.name for f in self._fields]}") from None

    def offset_of(self, name_or_index: "str | int") -> int:
        """Byte offset of a field inside the packed tuple."""
        return self._fields[self.field_index(name_or_index)].offset

    # -- (de)serialization -----------------------------------------------
    def pack(self, values: tuple) -> bytes:
        """Pack a Python tuple into its wire representation."""
        try:
            return self._struct.pack(*values)
        except struct.error as exc:
            raise SchemaError(
                f"tuple {values!r} does not match schema "
                f"{[f.name for f in self._fields]}: {exc}") from None

    def pack_into(self, buffer: bytearray, offset: int,
                  values: tuple) -> None:
        """Pack a tuple directly into ``buffer`` at ``offset``."""
        try:
            self._struct.pack_into(buffer, offset, *values)
        except struct.error as exc:
            raise self.pack_error(values, exc) from None

    @staticmethod
    def pack_error(values: tuple, exc: struct.error) -> SchemaError:
        """The SchemaError for a tuple that failed to pack."""
        return SchemaError(f"tuple {values!r} does not match schema: {exc}")

    def _batch_struct(self, count: int) -> "struct.Struct | None":
        """Batch struct for ``count`` tuples, or ``None`` once the cache
        is full and ``count`` is uncached — callers then take the
        power-of-two chunked path instead of compiling a throwaway
        ``struct.Struct`` on every call."""
        compiled = self._batch_structs.get(count)
        if compiled is None and len(self._batch_structs) < _BATCH_CACHE_CAP:
            compiled = struct.Struct("<" + self._codes * count)
            self._batch_structs[count] = compiled
        return compiled

    def _pow2_struct(self, count: int) -> struct.Struct:
        """Batch struct for a power-of-two chunk (never evicted; at most
        one entry per bit of the largest chunked count)."""
        compiled = self._pow2_structs.get(count)
        if compiled is None:
            compiled = self._pow2_structs[count] = struct.Struct(
                "<" + self._codes * count)
        return compiled

    def pack_many_into(self, buffer: bytearray, offset: int,
                       tuples) -> None:
        """Pack a sequence of tuples contiguously into ``buffer`` with one
        ``struct`` call — the amortization behind the batched push path.

        Counts beyond the batch-struct cache pack in power-of-two chunks
        (identical bytes, no per-call compile). Schemas built with codegen
        enabled shadow this method with the generated kernel of the same
        contract.
        """
        count = len(tuples)
        if count == 1:
            self.pack_into(buffer, offset, tuples[0])
            return
        compiled = self._batch_struct(count)
        try:
            if compiled is not None:
                compiled.pack_into(
                    buffer, offset, *chain.from_iterable(tuples))
                return
            size = self._struct.size
            index = 0
            while index < count:
                chunk = 1 << ((count - index).bit_length() - 1)
                self._pow2_struct(chunk).pack_into(
                    buffer, offset + index * size,
                    *chain.from_iterable(tuples[index:index + chunk]))
                index += chunk
        except struct.error as exc:
            raise SchemaError(
                f"batch of {count} tuples does not match schema: "
                f"{exc}") from None

    def unpack(self, data: "bytes | bytearray | memoryview") -> tuple:
        """Unpack one tuple from exactly ``tuple_size`` bytes."""
        try:
            return self._struct.unpack(data)
        except struct.error as exc:
            raise SchemaError(f"cannot unpack tuple: {exc}") from None

    def unpack_from(self, buffer, offset: int = 0) -> tuple:
        """Unpack one tuple from ``buffer`` starting at ``offset``."""
        try:
            return self._struct.unpack_from(buffer, offset)
        except struct.error as exc:
            raise SchemaError(f"cannot unpack tuple: {exc}") from None

    def unpack_many(self, buffer, count: int, offset: int = 0) -> list[tuple]:
        """Unpack ``count`` consecutive tuples (a segment payload)."""
        size = self._struct.size
        span = count * size
        if offset or len(buffer) != span:
            buffer = memoryview(buffer)[offset:offset + span]
        # iter_unpack walks the whole payload in C, one call per segment.
        return list(self._iter_unpack(buffer))

    def unpack_rows(self, buffer) -> list[tuple]:
        """Unpack every tuple in ``buffer`` — the target-side drain hot
        path. ``buffer`` must hold a whole number of packed tuples (a
        segment's used payload always does); unlike :meth:`unpack_many`
        there is no count bookkeeping or slicing, just one C call."""
        try:
            return list(self._iter_unpack(buffer))
        except struct.error as exc:
            raise SchemaError(
                f"cannot unpack {len(buffer)} bytes as "
                f"{self.tuple_size}-byte tuples: {exc}") from None

    def row_views(self, buffer) -> list[memoryview]:
        """Split ``buffer`` into one zero-copy memoryview per packed tuple.

        The views alias ``buffer``'s memory — for views handed out by
        ``consume_bytes`` the ring-segment lifetime rules apply (valid
        only until the consuming process yields back to the simulator).
        """
        size = self._struct.size
        view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
        span = len(view)
        if span % size:
            raise SchemaError(
                f"cannot split {span} bytes into {size}-byte rows")
        return [view[offset:offset + size]
                for offset in range(0, span, size)]

    # -- specialized kernels ----------------------------------------------
    def compiled_route_many(self, key_index: int, generic_route_many):
        """Generated hash-partition kernel for shuffling on field
        ``key_index``, or ``None`` when codegen is off or the key dtype
        is not a statically-known integer.

        The kernel produces exactly the partitions of
        ``generic_route_many`` (same Fibonacci hash, same power-of-two
        mask folding); on any ``TypeError`` — a value that does not match
        the declared dtype — it discards its partial groups and replays
        the whole batch through ``generic_route_many``, so even the
        mistyped-batch behaviour is bit-identical to the fallback.
        """
        if self._kernels is None:
            return None
        code = self._fields[key_index].dtype.code
        if code not in _INT_CODES:
            return None
        return self._kernels.route_many(key_index, generic_route_many,
                                        code in _UNSIGNED_CODES)

    def fold_kernel(self, group_index: int, value_index: int, op: str):
        """Columnar combiner-fold factory for this schema, or ``None``
        when codegen is off or ``op`` is unknown.

        The factory is called as ``factory(get, put)`` with the aggregate
        table's bound ``dict.get``/``dict.__setitem__`` and returns
        ``fold_chunks(chunks) -> folded_tuple_count``: it aggregates
        straight out of packed segment bytes, decoding only the group and
        value columns (all other fields are ``struct`` pad bytes in the
        generated format), and folds in exactly the order the generic
        row-tuple loop would have.
        """
        if self._kernels is None or op not in ("sum", "count", "min",
                                               "max"):
            return None
        return self._kernels.fold_factory(self._fields, group_index,
                                          value_index, op)

    @property
    def codegen_active(self) -> bool:
        """True when this schema carries generated kernels."""
        return self._kernels is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.name}:{f.dtype.name}" for f in self._fields)
        return f"<Schema [{cols}] size={self.tuple_size}>"


# ---------------------------------------------------------------------------
# Generated kernels (the columnar hot path)
# ---------------------------------------------------------------------------
#
# One kernel set per dtype-code string, built by exec-ing specialized
# source with the layout constants inlined. The cache below makes kernel
# construction O(1) after the first schema of a given layout — flow setup
# creates many short-lived Schema objects in tests.

#: codes -> _SchemaKernels (process-global; kernels are stateless apart
#: from their struct caches, so sharing across schemas is safe).
_KERNEL_CACHE: dict = {}


def _kernels_for(codes: str) -> "_SchemaKernels":
    kernels = _KERNEL_CACHE.get(codes)
    if kernels is None:
        kernels = _KERNEL_CACHE[codes] = _SchemaKernels(codes)
    return kernels


_PACK_UNPACK_TEMPLATE = '''\
_S = _Struct("<" + _CODES)
_PACK_INTO_1 = _S.pack_into
_ITER_UNPACK = _S.iter_unpack
_BATCH = {}
_POW2 = {}


def _batch_struct(count):
    s = _BATCH.get(count)
    if s is None and len(_BATCH) < _CACHE_CAP:
        s = _BATCH[count] = _Struct("<" + _CODES * count)
    return s


def _pow2_struct(count):
    s = _POW2.get(count)
    if s is None:
        s = _POW2[count] = _Struct("<" + _CODES * count)
    return s


def pack_many_into(buffer, offset, tuples):
    """Generated batch packer for schema layout %(codes)r."""
    count = len(tuples)
    if count == 1:
        try:
            _PACK_INTO_1(buffer, offset, *tuples[0])
        except _struct_error as exc:
            raise _SchemaError(
                f"tuple {tuples[0]!r} does not match schema: {exc}"
            ) from None
        return
    compiled = _batch_struct(count)
    try:
        if compiled is not None:
            compiled.pack_into(buffer, offset, *_flat(tuples))
            return
        index = 0
        while index < count:
            chunk = 1 << ((count - index).bit_length() - 1)
            _pow2_struct(chunk).pack_into(
                buffer, offset + index * %(size)d,
                *_flat(tuples[index:index + chunk]))
            index += chunk
    except _struct_error as exc:
        raise _SchemaError(
            f"batch of {count} tuples does not match schema: {exc}"
        ) from None


def unpack_rows(buffer):
    """Generated row-block unpacker for schema layout %(codes)r."""
    try:
        return list(_ITER_UNPACK(buffer))
    except _struct_error as exc:
        raise _SchemaError(
            f"cannot unpack {len(buffer)} bytes as "
            f"%(size)d-byte tuples: {exc}") from None
'''

_ROUTE_TEMPLATE = '''\
def %(pyname)s(tuples, target_count):
    """Generated hash partitioner (key field %(key_index)d, int dtype)."""
    groups = [[] for _ in range(target_count)]
    try:
        if target_count & (target_count - 1) == 0:
            low = target_count - 1
            appends = tuple(group.append for group in groups)
            # ``>> 32 & low`` reads bits 32..32+b-1 of the product, all
            # below bit 64 — identical with or without the ``& %(mask)d``
            # truncation (Python's infinite two's complement agrees with
            # the masked value on every bit position < 64), so the mask
            # is dropped from this branch for speed. The modulo branch
            # folds *all* bits and must keep it.
            for values in tuples:
                appends[values[%(key_index)d] * %(mult)d
                        >> 32 & low](values)
        else:
            appends = [group.append for group in groups]
            for values in tuples:
                appends[((values[%(key_index)d] * %(mult)d
                          & %(mask)d) >> 32) %% target_count](values)
    except (TypeError, OverflowError):
        # A value defied its declared integer dtype (str keys raise
        # OverflowError from sequence repetition, most others TypeError):
        # replay the whole batch through the generic router (partial
        # groups discarded), reproducing its isinstance semantics.
        return %(generic)s(tuples, target_count)
    return groups
%(np_block)s'''

_ROUTE_NP_TEMPLATE = '''\


def %(name)s(tuples, target_count):
    """Vectorized bucket pass over %(pyname)s (identical partitions).

    The bucket arithmetic wraps the key*multiplier product mod 2**64
    exactly as the scalar kernel's mask does, and both branches read
    only bits 32..63 of that product — the partitions are therefore
    bit-identical for every in-range key, and the out-of-band cases
    land on the same code paths the scalar kernel uses.
    """
    if len(tuples) < %(np_min)d:
        return %(pyname)s(tuples, target_count)
    try:
        keys = _np_fromiter(map(_op_index, map(_ig%(key_index)d, tuples)),
                            _np_uint64, len(tuples))
    except TypeError:
        # A key defied the declared integer dtype (``operator.index``
        # rejects floats, strings, None): same destination as the
        # scalar kernel's mistyped-batch path.
        return %(generic)s(tuples, target_count)
    except OverflowError:
        # Negative or >= 2**64 keys fall outside the C-uint64 pass,
        # but the scalar kernel routes them by full-precision product
        # bits without erroring — replay through it, not the generic.
        return %(pyname)s(tuples, target_count)
    buckets = ((keys * _np_mult) >> _np_s32).astype(_np_int64)
    if target_count & (target_count - 1) == 0:
        buckets &= target_count - 1
    else:
        buckets %%= target_count
    groups = [[] for _ in range(target_count)]
    appends = tuple(group.append for group in groups)
    for bucket, values in zip(buckets.tolist(), tuples):
        appends[bucket](values)
    return groups
'''

_FOLD_TEMPLATE = '''\
def %(name)s(get, put):
    """Generated columnar fold factory (%(op)s) for layout %(codes)r."""
    _iter_pairs = _Struct(%(fmt)r).iter_unpack

    def fold_chunks(chunks):
        folded = 0
        for chunk in chunks:
            folded += len(chunk)
%(body)s
        return folded // %(size)d

    return fold_chunks
'''

#: Inner loop bodies per (op, column order). ``%(head)s`` is the loop
#: header unpacking the selective struct's yield into group/value.
_FOLD_BODIES = {
    "sum": """\
            for {head} in _iter_pairs(chunk):
                current = get(group)
                put(group, value if current is None else current + value)""",
    "count": """\
            for (group,) in _iter_pairs(chunk):
                current = get(group)
                put(group, 1 if current is None else current + 1)""",
    "min": """\
            for {head} in _iter_pairs(chunk):
                current = get(group)
                if current is None or value < current:
                    put(group, value)""",
    "max": """\
            for {head} in _iter_pairs(chunk):
                current = get(group)
                if current is None or value > current:
                    put(group, value)""",
}


def _selective_format(fields, indices) -> str:
    """Little-endian struct format decoding only ``indices`` of a packed
    row; every other byte is padding. One row in, one tuple out (field
    order), so ``iter_unpack`` walks a segment of rows directly."""
    wanted = sorted(set(indices))
    parts = ["<"]
    position = 0
    for index in wanted:
        field = fields[index]
        if field.offset > position:
            parts.append(f"{field.offset - position}x")
        parts.append(field.dtype.code)
        position = field.offset + field.dtype.size
    total = fields[-1].offset + fields[-1].dtype.size
    if total > position:
        parts.append(f"{total - position}x")
    return "".join(parts)


class _SchemaKernels:
    """Kernel set generated for one dtype-code string."""

    __slots__ = ("codes", "_namespace", "pack_many_into", "unpack_rows",
                 "_route_cache", "_fold_cache")

    def __init__(self, codes: str) -> None:
        self.codes = codes
        compiled = struct.Struct("<" + codes)
        namespace = {
            "_Struct": struct.Struct,
            "_struct_error": struct.error,
            "_SchemaError": SchemaError,
            "_flat": chain.from_iterable,
            "_CODES": codes,
            "_CACHE_CAP": _BATCH_CACHE_CAP,
        }
        source = _PACK_UNPACK_TEMPLATE % {
            "codes": codes, "size": compiled.size}
        exec(compile(source, f"<schema-kernels {codes!r}>", "exec"),
             namespace)
        self._namespace = namespace
        self.pack_many_into = namespace["pack_many_into"]
        self.unpack_rows = namespace["unpack_rows"]
        self._route_cache: dict = {}
        self._fold_cache: dict = {}

    def route_many(self, key_index: int, generic_route_many,
                   unsigned: bool = False):
        """Hash-partition kernel for ``key_index`` (see
        :meth:`Schema.compiled_route_many`). The generic fallback is
        rebound per call site — kernels are shared across schemas, but
        every generated router of a given key index shares one body.
        Unsigned key dtypes additionally get the vectorized bucket
        pass when numpy is importable (identical partitions either
        way, so availability never changes results)."""
        kernel = self._route_cache.get(key_index)
        if kernel is None:
            name = f"_route_many_k{key_index}"
            generic_name = f"_generic_route_k{key_index}"
            np_mod = _numpy() if unsigned else False
            pyname = name + "_py" if np_mod else name
            fields = {
                "name": name, "pyname": pyname, "key_index": key_index,
                "mult": _HASH_MULT, "mask": _HASH_MASK,
                "generic": generic_name, "np_min": _ROUTE_NP_MIN,
            }
            if np_mod:
                namespace = self._namespace
                if "_np_fromiter" not in namespace:
                    namespace["_np_fromiter"] = np_mod.fromiter
                    namespace["_np_uint64"] = np_mod.uint64
                    namespace["_np_int64"] = np_mod.int64
                    namespace["_np_mult"] = np_mod.uint64(_HASH_MULT)
                    namespace["_np_s32"] = np_mod.uint64(32)
                    namespace["_op_index"] = operator.index
                namespace[f"_ig{key_index}"] = operator.itemgetter(
                    key_index)
                fields["np_block"] = _ROUTE_NP_TEMPLATE % fields
            else:
                fields["np_block"] = ""
            source = _ROUTE_TEMPLATE % fields
            exec(compile(source,
                         f"<schema-router {self.codes!r}[{key_index}]>",
                         "exec"), self._namespace)
            kernel = self._route_cache[key_index] = (
                self._namespace[name], generic_name)
        route, generic_name = kernel
        # The TypeError fallback dispatches through the namespace so the
        # kernel body stays shared; the latest generic is always correct
        # because every generic router of (codes, key) behaves alike.
        self._namespace[generic_name] = generic_route_many
        return route

    def fold_factory(self, fields, group_index: int, value_index: int,
                     op: str):
        """Columnar fold factory (see :meth:`Schema.fold_kernel`)."""
        key = (group_index, value_index, op)
        factory = self._fold_cache.get(key)
        if factory is None:
            if op == "count" or group_index == value_index:
                fmt = _selective_format(fields, (group_index,))
            else:
                fmt = _selective_format(fields,
                                        (group_index, value_index))
            if op == "count":
                head = "(group,)"
            elif group_index == value_index:
                head = "(group,)"
            elif group_index < value_index:
                head = "(group, value)"
            else:
                head = "(value, group)"
            body = _FOLD_BODIES[op].format(head=head)
            if op != "count" and group_index == value_index:
                # Single decoded column doubles as group and value.
                body = body.replace("_iter_pairs(chunk):",
                                    "_iter_pairs(chunk):\n"
                                    "                value = group",
                                    1)
            name = f"_fold_{group_index}_{value_index}_{op}"
            size = fields[-1].offset + fields[-1].dtype.size
            source = _FOLD_TEMPLATE % {
                "name": name, "op": op, "codes": self.codes,
                "fmt": fmt, "body": body, "size": size,
            }
            exec(compile(source,
                         f"<schema-fold {self.codes!r} {op}>", "exec"),
                 self._namespace)
            factory = self._fold_cache[key] = self._namespace[name]
        return factory
