package topo

// Topology partitioning for sharded parallel simulation. A partition maps
// every node (in creation order) to a shard; the quality goal is the classic
// graph-partitioning one — balanced shard sizes with few cut edges — because
// every cut edge becomes a boundary link whose packets pay a mailbox copy,
// and the cut edges' propagation delays bound each shard's lookahead.
// Fat-trees get an exact pod-aligned split (pods only meet at the
// core, so cutting there is structurally minimal); arbitrary graphs get a
// min-cut-ish heuristic: BFS-ordered contiguous chunks refined by greedy
// gain moves.

// PartGraph is the abstract topology a builder hands to the partitioner
// before creating any nodes. Nodes are indexed in the exact order the
// builder will create them (hosts and switches interleaved).
type PartGraph struct {
	N     int      // node count
	Edges [][2]int // undirected adjacency, one entry per link pair
}

// PartitionGraph assigns each node of g to one of shards shards: BFS
// chunking for spatial contiguity, then a few passes of greedy gain
// refinement (move a node to the neighboring shard holding more of its
// edges, when balance allows). Deterministic for a given graph.
func PartitionGraph(g PartGraph, shards int) []int {
	assign := make([]int, g.N)
	if shards <= 1 || g.N == 0 {
		return assign
	}
	if shards > g.N {
		shards = g.N
	}

	adj := make([][]int, g.N)
	for _, e := range g.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}

	// BFS order from node 0 (appending unvisited roots for disconnected
	// graphs) keeps chunks spatially contiguous.
	order := make([]int, 0, g.N)
	seen := make([]bool, g.N)
	for root := 0; root < g.N; root++ {
		if seen[root] {
			continue
		}
		seen[root] = true
		queue := []int{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	// Floor distribution over the BFS order: shard sizes differ by at most
	// one and every shard is populated (ceil-sized chunks would leave
	// trailing shards empty, e.g. 9 nodes at 4 shards -> [3,3,3,0]).
	for i, v := range order {
		assign[v] = i * shards / g.N
	}

	// Greedy refinement: move nodes toward the shard holding more of their
	// neighbors while shard sizes stay within one node of balance.
	sizes := make([]int, shards)
	for _, s := range assign {
		sizes[s]++
	}
	minSize, maxSize := g.N/shards-1, (g.N+shards-1)/shards+1
	if minSize < 1 {
		minSize = 1
	}
	degree := make([]int, shards)
	for pass := 0; pass < 4; pass++ {
		moved := false
		for v := 0; v < g.N; v++ {
			cur := assign[v]
			if sizes[cur] <= minSize {
				continue
			}
			for s := range degree {
				degree[s] = 0
			}
			for _, w := range adj[v] {
				degree[assign[w]]++
			}
			best, bestGain := cur, 0
			for s := 0; s < shards; s++ {
				if s == cur || sizes[s] >= maxSize {
					continue
				}
				if gain := degree[s] - degree[cur]; gain > bestGain {
					best, bestGain = s, gain
				}
			}
			if best != cur {
				assign[v] = best
				sizes[cur]--
				sizes[best]++
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return assign
}

// FatTreePartition returns the pod-aligned creation-order assignment for
// FatTree(k) over the given shard count: core switches round-robin across
// shards, each pod (its aggregation and edge switches and its hosts) wholly
// inside shard pod*shards/k. Pods only meet at the core, so every cut edge
// is an agg-core (or core-local) link — the structural minimum for a
// balanced fat-tree split.
func FatTreePartition(k, shards int) []int {
	half := k / 2
	if shards > k {
		shards = k
	}
	var assign []int
	for c := 0; c < half*half; c++ {
		assign = append(assign, c%shards)
	}
	for p := 0; p < k; p++ {
		podShard := p * shards / k
		// Creation order inside a pod: (agg, edge) pairs, then the hosts.
		for i := 0; i < 2*half+half*half; i++ {
			assign = append(assign, podShard)
		}
	}
	return assign
}
