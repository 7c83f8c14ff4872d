"""Sample the resident set size of another process until told to stop.

Usage: python3 rss_sampler.py PID PERIOD_SECONDS

Prints "ready", then reads /proc/PID/statm every PERIOD_SECONDS until a line
(or end of file) arrives on standard input. It then prints one line per
sample, "<time.perf_counter()> <rss bytes>", and exits. A separate process
keeps sampling while the traced process holds the interpreter lock inside a
native call such as LAPACK's eigensolver, which a sampling thread cannot.
"""

import os
import select
import sys
import time


def main(argv):
    pid, period = int(argv[1]), float(argv[2])
    page = os.sysconf("SC_PAGE_SIZE")
    fd = os.open(f"/proc/{pid}/statm", os.O_RDONLY)
    samples = []
    try:
        print("ready", flush=True)
        while not select.select([sys.stdin], [], [], period)[0]:
            rss = int(os.pread(fd, 256, 0).split()[1]) * page
            samples.append(f"{time.perf_counter()!r} {rss}")
    finally:
        os.close(fd)
    sys.stdout.write("\n".join(samples) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
