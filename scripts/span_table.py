#!/usr/bin/env python3
"""Print the span arithmetic for the standard single-span geometries."""

from msam.conv import required_span
from msam.dataio import SAMPLE_RATE

ROWS = [(10, 400), (10, 100), (10, 50), (10, 25), (4, 50), (9, 50), (15, 50), (20, 50)]


def main():
    print("id\tstride\tkernel\tspan_samples\tspan_ms")
    for stride, kernel_len in ROWS:
        span = required_span(200, stride, kernel_len)
        print(f"I_{stride}^{kernel_len}\t{stride}\t{kernel_len}\t{span}\t{1000 * span / SAMPLE_RATE:.2f}")


if __name__ == "__main__":
    main()
