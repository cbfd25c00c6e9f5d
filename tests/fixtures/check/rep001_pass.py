# virtual-path: src/repro/layout/ok_import.py
# networkx is allowed outside src/repro/{decode,codes,deform}/ (layout).
import networkx as nx


def build(edges):
    graph = nx.Graph()
    graph.add_edges_from(edges)
    return graph
