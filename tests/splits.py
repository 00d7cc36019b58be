"""The split that `coocmap.bench._split_sides` streams, on whole lists: the
oracle the ingest tests compare against."""


def alternate_blocks(lines: list, block: int) -> tuple[list, list]:
    """Deal consecutive blocks of lines to the two halves alternately."""
    a: list = []
    b: list = []
    for i in range(0, len(lines), block):
        (a if (i // block) % 2 == 0 else b).extend(lines[i : i + block])
    return a, b
