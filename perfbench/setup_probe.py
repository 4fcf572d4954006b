"""Build a workload's inputs through commqual's public loaders, then exit.

Usage: python3 setup_probe.py GROUND DETECTED NETWORK [UNIVERSE]

Its wall time from spawn to exit is ``setup_s``: interpreter start, import,
``parse_community_lines`` -> ``Partition`` for both partitions, and
``load_edge_list`` -> ``to_dense`` -> ``Partition`` for the network side.
No metric is computed.
"""

import sys

from commqual.graph import Partition, load_edge_list, parse_community_lines


def main():
    ground_path, detected_path, network_path = sys.argv[1:4]
    with open(ground_path, "rb") as fh:
        ground_lists = parse_community_lines(fh)
    with open(detected_path, "rb") as fh:
        detected_lists = parse_community_lines(fh)
    if len(sys.argv) > 4:
        universe = int(sys.argv[4])
    else:
        universe = max(max(c) for c in ground_lists + detected_lists) + 1
    Partition(ground_lists, universe)
    Partition(detected_lists, universe)
    with open(network_path, "rb") as fh:
        net = load_edge_list(fh)
    Partition([net.to_dense(sorted(set(c))) for c in detected_lists], net.node_count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
