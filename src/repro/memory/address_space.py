"""Sparse paged address space with little-endian accessors.

Both ISAs in the system (the architected ``x86lite`` and the implementation
``fusible`` ISA) address the same kind of flat 32-bit byte-addressed memory.
Pages are materialized on first touch so that widely separated regions
(program text, stack, VMM code caches) do not cost proportional storage.
"""

from __future__ import annotations

import struct

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDRESS_MASK = 0xFFFFFFFF

_U32 = struct.Struct("<I")


class MemoryError_(Exception):
    """Raised on invalid memory access (bad address or misuse)."""


class AddressSpace:
    """A sparse 32-bit little-endian byte-addressable memory.

    Pages (4 KiB) are allocated lazily.  Reads from never-written pages
    return zero bytes, matching the "zero-filled fresh page" model that the
    VMM relies on when carving out concealed code-cache regions.
    """

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    # -- page management -------------------------------------------------

    def _page_for_write(self, page_index: int) -> bytearray:
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_index] = page
        return page

    @property
    def resident_pages(self) -> int:
        """Number of pages materialized so far."""
        return len(self._pages)

    # -- byte-range access ------------------------------------------------

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr`` (wrapping is an error)."""
        addr &= ADDRESS_MASK
        if addr + len(data) > ADDRESS_MASK + 1:
            raise MemoryError_(f"write past end of address space at {addr:#x}")
        offset = 0
        remaining = len(data)
        while remaining:
            page_index, in_page = divmod(addr + offset, PAGE_SIZE)
            chunk = min(remaining, PAGE_SIZE - in_page)
            page = self._page_for_write(page_index)
            page[in_page:in_page + chunk] = data[offset:offset + chunk]
            offset += chunk
            remaining -= chunk

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr``."""
        addr &= ADDRESS_MASK
        if size < 0:
            raise MemoryError_("negative read size")
        if addr + size > ADDRESS_MASK + 1:
            raise MemoryError_(f"read past end of address space at {addr:#x}")
        out = bytearray(size)
        offset = 0
        remaining = size
        while remaining:
            page_index, in_page = divmod(addr + offset, PAGE_SIZE)
            chunk = min(remaining, PAGE_SIZE - in_page)
            page = self._pages.get(page_index)
            if page is not None:
                out[offset:offset + chunk] = page[in_page:in_page + chunk]
            offset += chunk
            remaining -= chunk
        return bytes(out)

    # -- scalar accessors ---------------------------------------------------

    def read_u8(self, addr: int) -> int:
        page_index, in_page = divmod(addr & ADDRESS_MASK, PAGE_SIZE)
        page = self._pages.get(page_index)
        return page[in_page] if page is not None else 0

    def write_u8(self, addr: int, value: int) -> None:
        page_index, in_page = divmod(addr & ADDRESS_MASK, PAGE_SIZE)
        self._page_for_write(page_index)[in_page] = value & 0xFF

    def read_u16(self, addr: int) -> int:
        data = self.read(addr, 2)
        return data[0] | (data[1] << 8)

    def write_u16(self, addr: int, value: int) -> None:
        value &= 0xFFFF
        self.write(addr, bytes((value & 0xFF, value >> 8)))

    # 32-bit words unpack straight from the page unless they straddle a
    # page boundary: the native machine fetches every micro-op through
    # ``read_u32``, so that path allocates nothing but the int.

    def read_u32(self, addr: int) -> int:
        addr &= ADDRESS_MASK
        in_page = addr & PAGE_MASK
        if in_page <= PAGE_SIZE - 4:
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                return 0
            return _U32.unpack_from(page, in_page)[0]
        data = self.read(addr, 4)
        return data[0] | (data[1] << 8) | (data[2] << 16) | (data[3] << 24)

    def write_u32(self, addr: int, value: int) -> None:
        addr &= ADDRESS_MASK
        in_page = addr & PAGE_MASK
        if in_page <= PAGE_SIZE - 4:
            _U32.pack_into(self._page_for_write(addr >> PAGE_SHIFT),
                           in_page, value & 0xFFFFFFFF)
            return
        value &= 0xFFFFFFFF
        self.write(addr, bytes((value & 0xFF,
                                (value >> 8) & 0xFF,
                                (value >> 16) & 0xFF,
                                (value >> 24) & 0xFF)))

    def read_i32(self, addr: int) -> int:
        value = self.read_u32(addr)
        return value - 0x100000000 if value & 0x80000000 else value

    # -- bulk helpers -------------------------------------------------------

    def fill(self, addr: int, size: int, byte: int = 0) -> None:
        """Fill a range with a constant byte (used to scrub code caches)."""
        self.write(addr, bytes([byte & 0xFF]) * size)

    def snapshot(self) -> "AddressSpace":
        """Deep copy, used by differential tests and precise-state replay."""
        clone = AddressSpace()
        clone._pages = {index: bytearray(page)
                        for index, page in self._pages.items()}
        return clone
