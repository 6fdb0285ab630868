package main

import (
	"bytes"
	"fmt"
	"sync"

	"springfs/internal/blockdev"
	"springfs/internal/coherency"
	"springfs/internal/compfs"
	"springfs/internal/cryptfs"
	"springfs/internal/dfs"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/netsim"
	"springfs/internal/spring"
	"springfs/internal/unixapi"
	"springfs/internal/vm"
)

// stack is one workload's assembled system: the clients' Processes over
// it, and handles on the layers whose counters the benchmark reads.
type stack struct {
	d       *dataset
	clients []*client
	devs    []*devLedger
	mem     *blockdev.MemDevice // cold-durable's image, for the durability check
	link    *linkLedger
	vmm     *vm.VMM // the VMM of the node holding the data
	cohs    []*coherency.CohFS
	comp    *compfs.CompFS
	domains []*spring.Domain
	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// imageBytes is the RAM the stack's device images hold.
func (s *stack) imageBytes() uint64 {
	var n uint64
	for _, d := range s.devs {
		n += d.imageBytes()
	}
	return n
}

func (s *stack) node(name string) *spring.Node {
	n := spring.NewNode(name)
	s.closers = append(s.closers, n.Stop)
	return n
}

func (s *stack) domain(n *spring.Node, name string) *spring.Domain {
	d := spring.NewDomain(n, name)
	s.domains = append(s.domains, d)
	return d
}

// sfs assembles a Spring storage file system on dev: a coherency layer
// stacked on a disk layer, cross-domain when the two domains differ. The
// disk layer is handed to StackOn behind a layerFS.
func (s *stack) sfs(name string, dev *devLedger, vmm *vm.VMM, cohDom, diskDom *spring.Domain) (*coherency.CohFS, error) {
	disk, err := disklayer.Mount(dev, diskDom, vmm, name+"-disk")
	if err != nil {
		return nil, fmt.Errorf("mount %s: %w", name, err)
	}
	coh := coherency.New(cohDom, vmm, name)
	var under fsys.StackableFS = disk
	if cohDom != diskDom {
		under = fsys.WrapStackable(spring.Connect(cohDom, diskDom), disk)
	}
	if err := coh.StackOn(wrapFS("disk", under, false)); err != nil {
		return nil, err
	}
	s.devs = append(s.devs, dev)
	s.cohs = append(s.cohs, coh)
	return coh, nil
}

// newDevice formats an instant RAM device of blocks blocks behind a
// DiskFast ledger.
func newDevice(blocks int64) (*blockdev.MemDevice, *devLedger, error) {
	mem := blockdev.NewMem(blocks, blockdev.ProfileNone)
	dev := newDevLedger(mem, blockdev.ProfileFast)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		return nil, nil, err
	}
	return mem, dev, nil
}

// populate writes version 0 of every file through top, 64 KiB per call.
// The pages stay cached writable, as a warm working set is; cold-durable
// syncs its image instead.
func populate(top fsys.StackableFS, d *dataset) error {
	p := unixapi.NewProcess(top, naming.Root)
	chunk := make([]byte, 16*pageSize)
	for f := 0; f < d.nfiles; f++ {
		fd, err := p.Open(fileName(f), unixapi.O_RDWR|unixapi.O_CREAT|unixapi.O_EXCL)
		if err != nil {
			return fmt.Errorf("populate %s: %w", fileName(f), err)
		}
		for pg := 0; pg < filePages; pg += 16 {
			for k := 0; k < 16; k++ {
				d.c.fill(chunk[k*pageSize:(k+1)*pageSize], 0, f, pg+k, 0)
			}
			if _, err := p.Pwrite(fd, chunk, int64(pg)*pageSize); err != nil {
				return fmt.Errorf("populate %s: %w", fileName(f), err)
			}
		}
		if err := p.Close(fd); err != nil {
			return fmt.Errorf("populate %s: %w", fileName(f), err)
		}
	}
	return nil
}

// addClients opens n clients, client i over top(i).
func (s *stack) addClients(n int, seed int64, top func(i int) fsys.StackableFS) error {
	for i := 0; i < n; i++ {
		c, err := newClient(i, s.d, unixapi.NewProcess(top(i), naming.Root), seed)
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

// warm reads every page once through each client, so the measured phase
// starts with caches full and every lazy binding made.
func (s *stack) warm() error {
	for _, c := range s.clients {
		if err := c.verifyAll(); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	return nil
}

// verifyAll reads every page of the dataset through c and checks it
// against the current version.
func (c *client) verifyAll() error {
	for f := 0; f < c.d.nfiles; f++ {
		for pg := 0; pg < filePages; pg++ {
			n, err := c.proc.Pread(c.fds[f], c.buf, int64(pg)*pageSize)
			if err == nil && n != pageSize {
				err = fmt.Errorf("short read %d", n)
			}
			if err != nil {
				return fmt.Errorf("read %s page %d: %w", fileName(f), pg, err)
			}
			v := c.d.versions[c.d.page(f, pg)]
			c.d.c.fill(c.want, 0, f, pg, v)
			if !bytes.Equal(c.buf, c.want) {
				return fmt.Errorf("%s page %d: content differs from version %d", fileName(f), pg, v)
			}
		}
	}
	return nil
}

// buildHotPOSIX is Table 2's "stacked, two domains" SFS: the coherency
// and disk layers in separate domains, the clients in a third domain
// behind a cross-domain proxy. 64 files x 256 KiB, warm in an unbounded
// VMM.
func buildHotPOSIX(s *stack, seed int64, nclients int) error {
	node := s.node("hot")
	s.vmm = vm.New(s.domain(node, "vmm"), "vmm")
	_, dev, err := newDevice(6144)
	if err != nil {
		return err
	}
	cohDom, diskDom, clientDom := s.domain(node, "coherency"), s.domain(node, "disk"), s.domain(node, "client")
	coh, err := s.sfs("sfs", dev, s.vmm, cohDom, diskDom)
	if err != nil {
		return err
	}
	top := wrapFS("coh", fsys.WrapStackable(spring.Connect(clientDom, cohDom), coh), true)
	s.d = newDataset(newContent(seed), 64)
	if err := populate(top, s.d); err != nil {
		return err
	}
	if err := s.addClients(nclients, seed, func(int) fsys.StackableFS { return top }); err != nil {
		return err
	}
	return s.warm()
}

// buildCodec is one codec layer over one SFS: nfiles files x 256 KiB of
// compressible text, warm.
func buildCodec(s *stack, seed int64, nclients, nfiles int, codec func(node *spring.Node) (string, fsys.StackableFS, error)) error {
	node := s.node("codec")
	s.vmm = vm.New(s.domain(node, "vmm"), "vmm")
	_, dev, err := newDevice(int64(nfiles) * filePages * 3 / 2)
	if err != nil {
		return err
	}
	dom := s.domain(node, "sfs")
	coh, err := s.sfs("sfs", dev, s.vmm, dom, dom)
	if err != nil {
		return err
	}
	name, layer, err := codec(node)
	if err != nil {
		return err
	}
	if err := layer.StackOn(wrapFS("sfs", coh, false)); err != nil {
		return err
	}
	top := wrapFS(name, layer, true)
	s.d = newDataset(newContent(seed), nfiles)
	if err := populate(top, s.d); err != nil {
		return err
	}
	if err := s.addClients(nclients, seed, func(int) fsys.StackableFS { return top }); err != nil {
		return err
	}
	return s.warm()
}

// buildCryptMix is CryptFS over an SFS, 128 files. CryptFS allocates
// about 4 KiB per op, so the collector runs often, and ops it delays form
// a slow cluster. Over 32 files that cluster held about 1.2% of ops: the
// p99 sat on its edge and moved twice as much as the host's speed, and
// over 64 files still 1.7 times as much. With the live heap four times
// as large the collector runs a quarter as often, and the p99 keeps a
// steady ratio to the p50.
func buildCryptMix(s *stack, seed int64, nclients int) error {
	return buildCodec(s, seed, nclients, 128, func(node *spring.Node) (string, fsys.StackableFS, error) {
		crypt, err := cryptfs.New(s.domain(node, "cryptfs"), "cryptfs", "perfbench")
		return "cryptfs", crypt, err
	})
}

// buildCompMix is coherent COMPFS (Figure 6) over an SFS, 32 files.
func buildCompMix(s *stack, seed int64, nclients int) error {
	return buildCodec(s, seed, nclients, 32, func(node *spring.Node) (string, fsys.StackableFS, error) {
		s.comp = compfs.New(s.domain(node, "compfs"), "compfs", compfs.ModeCoherent)
		return "compfs", s.comp, nil
	})
}

// coldFiles is cold-durable's data: 128 files x 256 KiB = 32 MiB.
const coldFiles = 128

// buildColdDurable pre-builds a 32 MiB image, then mounts one SFS on it
// afresh, so nothing is cached, with the VMM bounded to a quarter of the
// data.
func buildColdDurable(s *stack, seed int64, nclients int) error {
	mem, dev, err := newDevice(10240)
	if err != nil {
		return err
	}
	s.d = newDataset(newContent(seed), coldFiles)
	var image stack
	node := image.node("image")
	dom := image.domain(node, "sfs")
	coh, err := image.sfs("sfs", dev, vm.New(image.domain(node, "vmm"), "vmm"), dom, dom)
	if err == nil {
		err = populate(coh, s.d)
	}
	if err == nil {
		err = coh.SyncFS()
	}
	image.close()
	if err != nil {
		return fmt.Errorf("build image: %w", err)
	}

	s.mem = mem
	node = s.node("cold")
	s.vmm = vm.New(s.domain(node, "vmm"), "vmm")
	s.vmm.SetMaxPages(coldFiles * filePages / 4)
	dom = s.domain(node, "sfs")
	coh, err = s.sfs("sfs", dev.remount(), s.vmm, dom, dom)
	if err != nil {
		return err
	}
	top := wrapFS("coh", coh, true)
	return s.addClients(nclients, seed, func(int) fsys.StackableFS { return top })
}

// checkDurable is cold-durable's durability check, run after the measured
// phase with the stack stopped as it stood: fsck the image, remount it,
// and re-read every data file and each client's last sync-unit file, which
// was fsynced and not yet unlinked.
func (s *stack) checkDurable() error {
	s.close()
	report, err := disklayer.Check(s.mem, false)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if !report.Clean {
		return fmt.Errorf("fsck: image not clean:\n%s", report)
	}
	node := spring.NewNode("check")
	defer node.Stop()
	disk, err := disklayer.Mount(s.mem, spring.NewDomain(node, "disk"), vm.New(spring.NewDomain(node, "vmm"), "vmm"), "check")
	if err != nil {
		return fmt.Errorf("remount: %w", err)
	}
	buf, want := make([]byte, pageSize), make([]byte, pageSize)
	check := func(name string, ns, file, pages int) error {
		f, err := disk.Open(name, naming.Root)
		if err != nil {
			return fmt.Errorf("remount: open %s: %w", name, err)
		}
		for pg := 0; pg < pages; pg++ {
			if _, err := f.ReadAt(buf, int64(pg)*pageSize); err != nil {
				return fmt.Errorf("remount: read %s page %d: %w", name, pg, err)
			}
			var v uint32
			if ns == 0 {
				v = s.d.versions[s.d.page(file, pg)]
			}
			s.d.c.fill(want, ns, file, pg, v)
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("remount: %s page %d lost its content", name, pg)
			}
		}
		return nil
	}
	for f := 0; f < s.d.nfiles; f++ {
		if err := check(fileName(f), 0, f, filePages); err != nil {
			return err
		}
	}
	for _, c := range s.clients {
		if c.units > 0 {
			if err := check(c.lastSync, syncNS+c.id, c.units, syncPages); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildRemoteDFS is a client node with one DFS connection per client to
// a server node exporting SFS; 32 files x 256 KiB, warm at the server.
func buildRemoteDFS(s *stack, seed int64, nclients int) error {
	server := s.node("server")
	s.vmm = vm.New(s.domain(server, "vmm"), "vmm")
	_, dev, err := newDevice(4096)
	if err != nil {
		return err
	}
	dom := s.domain(server, "sfs")
	coh, err := s.sfs("sfs", dev, s.vmm, dom, dom)
	if err != nil {
		return err
	}
	export := wrapFS("export", coh, false)
	srv := dfs.NewServer(s.domain(server, "dfs"), "dfs", naming.Root)
	if err := srv.StackOn(export); err != nil {
		return err
	}
	s.d = newDataset(newContent(seed), 32)
	if err := populate(export, s.d); err != nil {
		return err
	}

	network := netsim.New(netsim.ProfileNone)
	ln, err := network.Listen("server:dfs")
	if err != nil {
		return err
	}
	s.link = &linkLedger{profile: netsim.ProfileFast}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		srv.Serve(&ledgerListener{Listener: ln, l: s.link})
	}()
	s.closers = append(s.closers, func() {
		srv.Close() // closes the listener, which ends Serve
		serving.Wait()
	})

	clientNode := s.node("client")
	tops := make([]fsys.StackableFS, nclients)
	for i := range tops {
		conn, err := network.Dial("server:dfs")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("dfs-client%d", i)
		cl := dfs.NewClient(&ledgerConn{Conn: conn, l: s.link}, s.domain(clientNode, name), name)
		s.closers = append(s.closers, func() { _ = cl.Close() })
		tops[i] = wrapFS("dfs", dfs.NewClientFS(cl, name), true)
	}
	if err := s.addClients(nclients, seed, func(i int) fsys.StackableFS { return tops[i] }); err != nil {
		return err
	}
	return s.warm()
}
