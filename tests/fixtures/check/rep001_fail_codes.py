# virtual-path: src/repro/codes/bad_distance.py
# Seeded violation: networkx back in the code-distance path (REP001 x2).
import networkx
from networkx import shortest_path_length


def distance(graph, a, b):
    return shortest_path_length(networkx.Graph(graph), a, b)
