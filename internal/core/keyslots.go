package core

// KeySlots maps string keys to dense int32 slots, the string-keyed counterpart
// of the pipeline's target slot index. It exists for consumers one tier up
// from a single host — the fleet collector keys rollup slots by route strings
// ("cgroup:web/api", "node:n42") arriving as wire bytes — so the lookup path
// accepts a byte slice and allocates only the first time a key is seen: the
// map probe m[string(b)] does not copy its key, and the key string is
// materialised once, on assignment. Slots are grow-only; the collector's
// population (cgroup routes across a fleet) is small and stable, so recycling
// slots would buy nothing and cost the free-list bookkeeping.
type KeySlots struct {
	slots map[string]int32
	keys  []string
}

// Assign returns the slot of the key, assigning the next free slot the first
// time the key is seen.
func (k *KeySlots) Assign(key string) int32 {
	if slot, ok := k.slots[key]; ok {
		return slot
	}
	return k.assign(key)
}

func (k *KeySlots) assign(key string) int32 {
	if k.slots == nil {
		k.slots = make(map[string]int32)
	}
	slot := int32(len(k.keys))
	k.slots[key] = slot
	k.keys = append(k.keys, key)
	return slot
}

// Lookup returns the slot of the key without assigning, and whether it exists.
// Allocation-free for byte-derived keys via LookupBytes.
func (k *KeySlots) Lookup(key string) (int32, bool) {
	slot, ok := k.slots[key]
	return slot, ok
}

// LookupBytes is Lookup with a byte-slice key; the probe does not copy it.
func (k *KeySlots) LookupBytes(key []byte) (int32, bool) {
	slot, ok := k.slots[string(key)]
	return slot, ok
}
