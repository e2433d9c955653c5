"""DET001 fixture: wall-clock and unseeded-randomness reads."""

import random
import time
from time import monotonic, process_time


def stamp_event():
    return time.time()


def time_a_section():
    started = time.perf_counter()
    return time.perf_counter_ns(), process_time(), monotonic() - started


def jitter():
    return random.random()
