"""What `coocmap.corpus.take_head_bytes` and `coocmap.bench._split_sides`
stream, computed on whole texts and lists: the oracles the ingest tests
compare against."""

import os


def alternate_blocks(lines: list, block: int) -> tuple[list, list]:
    """Deal consecutive blocks of lines to the two halves alternately."""
    a: list = []
    b: list = []
    for i in range(0, len(lines), block):
        (a if (i // block) % 2 == 0 else b).extend(lines[i : i + block])
    return a, b


def head_text(path, n: int) -> tuple[str, int]:
    """The complete lines within the first n bytes of a file (all of them,
    the last line with or without its newline, when n reaches the end of the
    file), read whole and decoded, and their length in bytes: the budget
    rule the block reader `coocmap.corpus.take_head_bytes` streams."""
    with open(path, "rb") as f:
        head = f.read(n)
    size = len(head) if n >= os.path.getsize(path) else head.rfind(b"\n") + 1
    return str(memoryview(head)[:size], "utf-8"), size


def line_blocks(text: str, block_lines: int) -> list[str]:
    """`text` cut into consecutive blocks of `block_lines` lines (the last
    may be shorter), each keeping its lines' newlines."""
    blocks = []
    start, n = 0, len(text)
    while start < n:
        end = start
        for _ in range(block_lines):
            end = text.find("\n", end) + 1
            if not end:
                end = n
                break
        blocks.append(text[start:end])
        start = end
    return blocks
